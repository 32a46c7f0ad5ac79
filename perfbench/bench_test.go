package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// shortConfig is a shortened run: one set-up, one pass, and a small hot
// pool. Both runs of a test case share its output directory, so the second
// also checks its layouts against the digests the first recorded.
func shortConfig(t *testing.T, workload string, cells ...string) config {
	return config{
		workload: workload,
		seed:     7,
		root:     "..",
		out:      t.TempDir(),
		setups:   1,
		cells:    cells,
		hotPool:  2,
		seconds:  0,
	}
}

var effortMetrics = []string{"milp.nodes", "lp.pivots", "lp.refactorizations"}

var qualityMetrics = []string{"unmatched_strips", "total_bends", "drc_violations", "length_error_um"}

// TestDeterministicCounts runs each workload's shortened configuration twice
// at one seed: effort and quality counts must repeat exactly, and allocated
// bytes (batch) to within GC-timing noise, or the benchmark would gate on
// noise. The serve-mix stream opens with a novel circuit and its twin, which
// the client sends at once, so the twin must join the solve in flight
// however slowly the test runs.
func TestDeterministicCounts(t *testing.T) {
	cases := []struct {
		cfg   config
		layer []string
		e2e   []string
		alloc bool
	}{
		{shortConfig(t, "table1", "buffer60-A"), effortMetrics, qualityMetrics, true},
		{shortConfig(t, "refine", "twostage"), effortMetrics, qualityMetrics, true},
		{shortConfig(t, "serve-mix"), nil, qualityMetrics, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cfg.workload, func(t *testing.T) {
			if tc.cfg.workload == "serve-mix" {
				tc.cfg.seed = twinFirstSeed(t, tc.cfg.hotPool)
				tc.cfg.seconds = time.Second
			}
			var runs [2]*outcome
			for i := range runs {
				out, err := run(context.Background(), tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed > 0 || out.attempted == 0 {
					t.Fatalf("run %d: %d of %d operations failed: %v", i, out.failed, out.attempted, out.failures)
				}
				if tc.cfg.workload == "serve-mix" && out.layer["server.coalesced"] == 0 {
					t.Errorf("run %d: no request joined a solve in flight", i)
				}
				runs[i] = out
			}
			for _, name := range tc.layer {
				if a, b := runs[0].layer[name], runs[1].layer[name]; a != b || a == 0 {
					t.Errorf("%s: %v then %v, want equal and nonzero", name, a, b)
				}
			}
			for _, name := range tc.e2e {
				if a, b := runs[0].e2e[name], runs[1].e2e[name]; a != b || a == 0 {
					t.Errorf("%s: %v then %v, want equal and nonzero", name, a, b)
				}
			}
			if tc.alloc {
				// The flows allocate the same objects every run, but fmt
				// keeps its printers in a sync.Pool that each GC empties,
				// so a few bytes per GC cycle depend on GC timing.
				if a, b := runs[0].e2e["alloc_mb"], runs[1].e2e["alloc_mb"]; a == 0 || math.Abs(a-b) > 1e-4*a {
					t.Errorf("alloc_mb: %v then %v, want equal within 0.01%%", a, b)
				}
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	tr := &tracer{}
	pid := tr.add(span{Name: "p", Start: at(0), End: at(100)})
	for _, c := range [][2]int{{10, 30}, {20, 40}, {90, 120}} {
		tr.add(span{Name: "c", Parent: pid, Start: at(c[0]), End: at(c[1])})
	}
	self := selfTimes(tr.snapshot())
	// The children cover 10–40 and 90–100 of the parent: 40 of its 100 ms.
	if got := self["p"]; got != 60 {
		t.Errorf("parent self time %v ms, want 60", got)
	}
	if got := self["c"]; got != 70 {
		t.Errorf("children self time %v ms, want 70", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty %v, want 0", got)
	}
}

func TestSampleRSS(t *testing.T) {
	s := sampleRSS(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	got := s.finish()
	if len(got) < 2 {
		t.Fatalf("%d samples, want several", len(got))
	}
	if rss := statusMB("VmRSS"); got[0] <= 0 || got[0] > 2*rss {
		t.Errorf("first sample %v MB, want a resident set near VmRSS=%v MB", got[0], rss)
	}
}

// twinFirstSeed returns the first workload seed whose request stream starts
// with a novel circuit followed by its twin.
func twinFirstSeed(t *testing.T, hot int) int64 {
	pool := hotPool(hot)
	for seed := int64(1); seed < 1000; seed++ {
		s := newStream(seed, pool)
		if s.at(0).kind == kindNovel && s.at(1).kind == kindTwin {
			return seed
		}
	}
	t.Fatal("no seed below 1000 opens the stream with a twin pair")
	return 0
}
