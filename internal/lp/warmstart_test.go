package lp

import (
	"math"
	"math/rand"
	"testing"
)

// branchProblem is a small MILP-relaxation-shaped LP used by the warm-start
// tests: the optimum moves when a bound tightens, like a branch-and-bound
// child node.
func branchProblem() *Problem {
	p := NewProblem()
	x := p.AddVariable("x", 0, 10, -3)
	y := p.AddVariable("y", 0, 10, -2)
	z := p.AddVariable("z", 0, 10, -4)
	p.AddConstraint("c1", []Entry{{x, 1}, {y, 1}, {z, 1}}, LE, 12)
	p.AddConstraint("c2", []Entry{{x, 2}, {y, 1}}, LE, 14)
	p.AddConstraint("c3", []Entry{{y, 1}, {z, 3}}, LE, 15)
	return p
}

func TestWarmStartMatchesColdAfterBoundChange(t *testing.T) {
	p := branchProblem()
	root := solveOrFatal(t, p, Options{})
	if root.Status != StatusOptimal {
		t.Fatalf("root status = %v", root.Status)
	}
	if root.Basis == nil {
		t.Fatal("optimal solve exported no basis")
	}
	if root.WarmStarted {
		t.Error("cold solve reported WarmStarted")
	}

	// Branch: tighten x like a floor/ceil split would.
	for _, ov := range []Options{
		{UpperOverride: map[int]float64{0: 2}},
		{LowerOverride: map[int]float64{0: 4}},
		{UpperOverride: map[int]float64{1: 3}, LowerOverride: map[int]float64{0: 1}},
	} {
		cold := solveOrFatal(t, p, ov)
		warmOpts := ov
		warmOpts.WarmBasis = root.Basis
		warm := solveOrFatal(t, p, warmOpts)
		if !warm.WarmStarted {
			t.Errorf("%+v: warm basis rejected", ov)
		}
		if warm.Status != cold.Status {
			t.Fatalf("%+v: warm status %v != cold %v", ov, warm.Status, cold.Status)
		}
		if !approx(warm.Objective, cold.Objective) {
			t.Errorf("%+v: warm objective %g != cold %g", ov, warm.Objective, cold.Objective)
		}
		for j := range cold.X {
			if warm.X[j] != cold.X[j] {
				t.Errorf("%+v: X[%d]: warm %v != cold %v", ov, j, warm.X[j], cold.X[j])
			}
		}
		checkFeasible(t, p, warm.X)
	}
}

func TestWarmStartDetectsInfeasibleChild(t *testing.T) {
	p := branchProblem()
	root := solveOrFatal(t, p, Options{})
	// x + y + z <= 12 makes lower bounds summing past 12 infeasible.
	sol := solveOrFatal(t, p, Options{
		LowerOverride: map[int]float64{0: 6, 1: 5, 2: 4},
		WarmBasis:     root.Basis,
	})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestWarmStartContradictoryBounds(t *testing.T) {
	p := branchProblem()
	root := solveOrFatal(t, p, Options{})
	sol := solveOrFatal(t, p, Options{
		LowerOverride: map[int]float64{0: 7},
		UpperOverride: map[int]float64{0: 3},
		WarmBasis:     root.Basis,
	})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
	if sol.WarmStarted {
		t.Error("trivially infeasible subproblem reported WarmStarted")
	}
}

func TestStaleBasisFallsBackCold(t *testing.T) {
	p := branchProblem()
	// A basis from a different problem shape must be rejected, not crash.
	other := NewProblem()
	other.AddVariable("a", 0, 1, 1)
	other.AddConstraint("c", []Entry{{0, 1}}, LE, 1)
	osol := solveOrFatal(t, other, Options{})
	if osol.Basis == nil {
		t.Fatal("no basis from helper problem")
	}
	sol := solveOrFatal(t, p, Options{WarmBasis: osol.Basis})
	if sol.WarmStarted {
		t.Error("incompatible basis accepted")
	}
	cold := solveOrFatal(t, p, Options{})
	if !approx(sol.Objective, cold.Objective) {
		t.Errorf("fallback objective %g != cold %g", sol.Objective, cold.Objective)
	}
}

func TestWarmStartSkipsPhase1Work(t *testing.T) {
	// A problem that needs phase-1 artificials cold: equality constraints.
	p := NewProblem()
	x := p.AddVariable("x", 0, 20, 1)
	y := p.AddVariable("y", 0, 20, 2)
	z := p.AddVariable("z", 0, 20, 3)
	p.AddConstraint("s", []Entry{{x, 1}, {y, 1}, {z, 1}}, EQ, 18)
	p.AddConstraint("d", []Entry{{x, 1}, {y, -1}}, GE, 2)
	root := solveOrFatal(t, p, Options{})
	if root.Basis == nil {
		t.Fatal("no root basis")
	}
	warm := solveOrFatal(t, p, Options{
		UpperOverride: map[int]float64{0: 9},
		WarmBasis:     root.Basis,
	})
	cold := solveOrFatal(t, p, Options{UpperOverride: map[int]float64{0: 9}})
	if !warm.WarmStarted {
		t.Fatal("warm basis rejected")
	}
	if warm.Status != StatusOptimal || !approx(warm.Objective, cold.Objective) {
		t.Fatalf("warm %v/%g vs cold %v/%g", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
	if warm.Iterations >= cold.Iterations+root.Iterations {
		t.Errorf("warm start saved nothing: warm %d pivots, cold %d", warm.Iterations, cold.Iterations)
	}
}

// TestDegenerateLPGoldenVertex: the solver must reach the documented optimum
// of a degenerate LP (the Beale cycling example, a flat-objective face, a
// degenerate transportation corner) at exactly the canonical vertex that the
// retired dense tableau core and every retired pricing rule agreed on.
func TestDegenerateLPGoldenVertex(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *Problem
		obj    float64
		golden []float64
	}{
		{
			// Beale's cycling example; optimum -0.05 at z = 1.
			name: "beale",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddVariable("x", 0, Infinity, -0.75)
				y := p.AddVariable("y", 0, Infinity, 150)
				z := p.AddVariable("z", 0, Infinity, -0.02)
				w := p.AddVariable("w", 0, Infinity, 6)
				p.AddConstraint("r1", []Entry{{x, 0.25}, {y, -60}, {z, -0.04}, {w, 9}}, LE, 0)
				p.AddConstraint("r2", []Entry{{x, 0.5}, {y, -90}, {z, -0.02}, {w, 3}}, LE, 0)
				p.AddConstraint("r3", []Entry{{z, 1}}, LE, 1)
				return p
			},
			obj:    -0.05,
			golden: []float64{0.04, 0, 1, 0},
		},
		{
			// min -(x+y) on x+y <= 4 with 0 <= x,y <= 4: the whole segment
			// x+y=4 is optimal; the canonical vertex is the lex-least one,
			// x=0, y=4.
			name: "flat-face",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddVariable("x", 0, 4, -1)
				y := p.AddVariable("y", 0, 4, -1)
				p.AddConstraint("cap", []Entry{{x, 1}, {y, 1}}, LE, 4)
				return p
			},
			obj:    -4,
			golden: []float64{0, 4},
		},
		{
			// Degenerate transportation corner: supply equals demand, many
			// alternate optimal bases.
			name: "transport",
			build: func() *Problem {
				p := NewProblem()
				costs := []float64{2, 3, 1, 5, 4, 8}
				for _, c := range costs {
					p.AddVariable("t", 0, Infinity, c)
				}
				p.AddConstraint("s0", []Entry{{0, 1}, {1, 1}, {2, 1}}, LE, 20)
				p.AddConstraint("s1", []Entry{{3, 1}, {4, 1}, {5, 1}}, LE, 30)
				p.AddConstraint("d0", []Entry{{0, 1}, {3, 1}}, GE, 10)
				p.AddConstraint("d1", []Entry{{1, 1}, {4, 1}}, GE, 25)
				p.AddConstraint("d2", []Entry{{2, 1}, {5, 1}}, GE, 15)
				return p
			},
			obj:    150,
			golden: []float64{5, 0, 15, 5, 25, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			sol := solveOrFatal(t, p, Options{})
			if sol.Status != StatusOptimal {
				t.Fatalf("status %v", sol.Status)
			}
			if !approx(sol.Objective, tc.obj) {
				t.Errorf("objective %g, want %g", sol.Objective, tc.obj)
			}
			checkFeasible(t, p, sol.X)
			for j := range sol.X {
				if sol.X[j] != tc.golden[j] {
					t.Errorf("X[%d] = %v, golden %v", j, sol.X[j], tc.golden[j])
				}
			}
			// Solved twice: bit-identical (determinism).
			again := solveOrFatal(t, tc.build(), Options{})
			for j := range sol.X {
				if sol.X[j] != again.X[j] {
					t.Errorf("rerun X[%d] %v != %v", j, again.X[j], sol.X[j])
				}
			}
		})
	}
}

func TestFlatFaceCanonicalVertex(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 4, -1)
	y := p.AddVariable("y", 0, 4, -1)
	p.AddConstraint("cap", []Entry{{x, 1}, {y, 1}}, LE, 4)
	sol := solveOrFatal(t, p, Options{})
	if !approx(sol.Value(x), 0) || !approx(sol.Value(y), 4) {
		t.Errorf("canonical vertex (%g, %g), want lex-least (0, 4)", sol.Value(x), sol.Value(y))
	}
}

// TestWarmColdBitIdentical is the core determinism property behind the MILP
// layer's warm/cold byte-identity contract: solving a child problem from the
// parent basis returns the exact float64 vector of the cold solve.
func TestWarmColdBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		nVars := 2 + rng.Intn(8)
		p, _ := randomFeasibleLP(rng, nVars, 1+rng.Intn(10))
		root, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if root.Status != StatusOptimal || root.Basis == nil {
			continue
		}
		// Simulated branch: tighten one variable's bound toward the middle.
		j := rng.Intn(nVars)
		v := p.Variables[j]
		mid := math.Floor((v.Lower + v.Upper) / 2)
		ov := Options{}
		if rng.Intn(2) == 0 {
			ov.UpperOverride = map[int]float64{j: mid}
		} else {
			ov.LowerOverride = map[int]float64{j: mid}
		}
		cold, err := Solve(p, ov)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		warmOpts := ov
		warmOpts.WarmBasis = root.Basis
		warm, err := Solve(p, warmOpts)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm %v != cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status != StatusOptimal {
			continue
		}
		for k := range cold.X {
			if warm.X[k] != cold.X[k] {
				t.Errorf("trial %d: X[%d] warm %v != cold %v (warmStarted=%v)",
					trial, k, warm.X[k], cold.X[k], warm.WarmStarted)
			}
		}
	}
}

func TestRefactorizationCounter(t *testing.T) {
	p := branchProblem()
	sol := solveOrFatal(t, p, Options{})
	if sol.Refactorizations < 1 {
		t.Errorf("optimal solve reports %d refactorizations, want >= 1 (final canonical rebuild)", sol.Refactorizations)
	}
	warm := solveOrFatal(t, p, Options{UpperOverride: map[int]float64{0: 2}, WarmBasis: sol.Basis})
	if warm.WarmStarted && warm.Refactorizations < 2 {
		t.Errorf("warm solve reports %d refactorizations, want >= 2 (install + final)", warm.Refactorizations)
	}
}
