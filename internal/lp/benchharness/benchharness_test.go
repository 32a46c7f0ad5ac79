package benchharness

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
	"rficlayout/internal/tech"
)

func loadTwostage(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseFile(filepath.Join("..", "..", "..", "testdata", "twostage.rfic"))
	if err != nil {
		t.Fatalf("loading twostage fixture: %v", err)
	}
	return c
}

// miniCircuit mirrors pilp's full-flow determinism fixture: small enough
// that its flow solves in well under a second.
func miniCircuit() *netlist.Circuit {
	c := netlist.NewCircuit("mini", tech.Default90nm(), geom.FromMicrons(420), geom.FromMicrons(320))
	d := netlist.NewDevice("M1", netlist.Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
	d.AddPin("in", geom.PtMicrons(-20, 0), 0)
	d.AddPin("out", geom.PtMicrons(20, 0), 0)
	c.AddDevice(d)
	cap := netlist.NewDevice("C1", netlist.Capacitor, geom.FromMicrons(40), geom.FromMicrons(30))
	cap.AddPin("p", geom.PtMicrons(0, -15), 0)
	c.AddDevice(cap)
	c.AddDevice(netlist.NewPad("PIN", c.Tech.PadSize))
	c.AddDevice(netlist.NewPad("POUT", c.Tech.PadSize))
	c.Connect("TL1", "PIN", "p", "M1", "in", geom.FromMicrons(140))
	c.Connect("TL2", "M1", "out", "POUT", "p", geom.FromMicrons(150))
	c.Connect("TLC", "M1", "out", "C1", "p", geom.FromMicrons(80))
	return c
}

// TestCompareFullFlow runs the full matrix over the complete three-phase
// flow on the mini circuit: every cell must produce the byte-identical
// layout, the warm cells must actually warm-start, and no warm cell may
// spend more pivots than its cold baseline. Every search is cut by a
// deterministic node budget, as in rficbench -lp-compare, so the
// byte-equality check does not depend on machine speed.
func TestCompareFullFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix of flow solves in -short mode")
	}
	rep, err := Compare(context.Background(), Config{
		Circuit: miniCircuit(),
		Options: pilp.Options{
			ChainPoints:         3,
			MaxChainPoints:      4,
			StripNodeLimit:      25,
			Phase1NodeLimit:     1000,
			MaxRefineIterations: 1,
		},
		Workers: []int{1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2; len(rep.Runs) != want {
		t.Fatalf("got %d runs, want %d", len(rep.Runs), want)
	}
	if ms := rep.Mismatches(); len(ms) > 0 {
		t.Errorf("layout mismatches across the matrix: %v", ms)
	}
	if regs := rep.Regressions(); len(regs) > 0 {
		t.Errorf("warm pivot regressions: %v", regs)
	}
	var warmHits int
	for _, run := range rep.Runs {
		if run.Cold {
			if run.LP.WarmHits != 0 || run.LP.WarmMisses != 0 {
				t.Errorf("%s: cold run counted warm LPs: %+v", run.label(), run.LP)
			}
		} else {
			warmHits += run.LP.WarmHits
		}
	}
	if warmHits == 0 {
		t.Error("no warm-start hits in any warm cell")
	}
	if red := rep.PivotReduction(); red < 1 {
		t.Errorf("warm-start pivot reduction %.2fx, want >= 1x", red)
	}
	table := rep.Table()
	for _, want := range []string{"warm", "cold", "pivot reduction"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	t.Logf("\n%s", table)
}

// TestComparePhase1Twostage exercises the Phase1Only path on the repo's
// example netlist with a reduced matrix.
func TestComparePhase1Twostage(t *testing.T) {
	rep, err := Compare(context.Background(), Config{
		Circuit:    loadTwostage(t),
		Options:    pilp.Options{PhaseTimeLimit: 2 * time.Minute},
		Workers:    []int{1},
		Phase1Only: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(rep.Runs))
	}
	if ms := rep.Mismatches(); len(ms) > 0 {
		t.Errorf("warm and cold phase-1 layouts differ: %v", ms)
	}
	for _, run := range rep.Runs {
		if run.LP.Pivots == 0 {
			t.Errorf("%s: no pivots counted", run.label())
		}
	}
}

func TestCompareNoCircuit(t *testing.T) {
	if _, err := Compare(context.Background(), Config{}); err == nil {
		t.Fatal("expected an error for a nil circuit")
	}
}
