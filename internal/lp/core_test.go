package lp

import (
	"fmt"
	"math"
	"testing"
)

// chainProblem builds a minimization with enough structure to force a long
// pivot sequence: coupled pairwise constraints over n variables plus one
// shared capacity row.
func chainProblem(n int) *Problem {
	p := NewProblem()
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		vars[i] = p.AddVariable(fmt.Sprintf("x%d", i), 0, Infinity, -float64(1+i%3))
	}
	for i := 0; i+1 < n; i++ {
		p.AddConstraint(fmt.Sprintf("c%d", i), []Entry{{vars[i], 1}, {vars[i+1], 2}}, LE, float64(4+i%5))
	}
	all := make([]Entry, n)
	for i, v := range vars {
		all[i] = Entry{v, 1}
	}
	p.AddConstraint("cap", all, LE, float64(n))
	return p
}

// TestEtaChainCapRespected: RefactorEvery caps the core's update-eta
// chain — a solve long enough to cross the cap many times must report a peak
// chain no longer than the cap, more refactorizations than the default
// cadence, and the same optimum.
func TestEtaChainCapRespected(t *testing.T) {
	p := chainProblem(40)
	def := solveOrFatal(t, p, Options{})
	capped := solveOrFatal(t, p, Options{RefactorEvery: 4})
	if capped.Status != StatusOptimal {
		t.Fatalf("capped solve status = %v", capped.Status)
	}
	if capped.PeakEta > 4 {
		t.Errorf("peak eta chain %d exceeds the RefactorEvery cap 4", capped.PeakEta)
	}
	if capped.PeakEta < 1 {
		t.Errorf("peak eta chain %d: solve pivoted but recorded no update etas", capped.PeakEta)
	}
	if capped.Refactorizations <= def.Refactorizations {
		t.Errorf("capped solve refactorized %d times, default cadence %d — the cap did not bind",
			capped.Refactorizations, def.Refactorizations)
	}
	if math.Abs(capped.Objective-def.Objective) > 1e-7 {
		t.Errorf("objective drifted under the tight cap: %g vs %g", capped.Objective, def.Objective)
	}
	for j := range def.X {
		if math.Abs(capped.X[j]-def.X[j]) > 1e-7 {
			t.Errorf("x[%d] = %g under the tight cap, %g under the default", j, capped.X[j], def.X[j])
		}
	}
}

// TestDriftTriggersRefactorization: an update pivot below the drift tolerance
// must force an immediate refactorization instead of extending the eta chain
// with a near-singular factor. The problem is scaled so the one structural
// pivot element is 1e-8: a short solve normally refactorizes exactly three
// times (cold setup plus two at optimality), so any extra rebuild is the
// drift guard firing.
func TestDriftTriggersRefactorization(t *testing.T) {
	tiny := NewProblem()
	x := tiny.AddVariable("x", 0, 10, -1)
	tiny.AddConstraint("c", []Entry{{x, 1e-8}}, LE, 1e-8)

	sol := solveOrFatal(t, tiny, Options{})
	if math.Abs(sol.X[0]-1) > 1e-6 {
		t.Errorf("x = %g, want 1", sol.X[0])
	}
	if sol.Refactorizations <= 3 {
		t.Errorf("refactorizations = %d; the 1e-8 pivot should have tripped the drift rebuild on top of the baseline 3",
			sol.Refactorizations)
	}

	// The well-scaled statement of the same problem must not trip the guard.
	scaled := NewProblem()
	xs := scaled.AddVariable("x", 0, 10, -1)
	scaled.AddConstraint("c", []Entry{{xs, 1}}, LE, 1)
	ssol := solveOrFatal(t, scaled, Options{})
	if ssol.Refactorizations != 3 {
		t.Errorf("well-scaled solve refactorized %d times, want exactly 3", ssol.Refactorizations)
	}
	if math.Abs(ssol.X[0]-sol.X[0]) > 1e-6 {
		t.Errorf("scaled and tiny statements disagree: %g vs %g", ssol.X[0], sol.X[0])
	}
}

// TestSingularWarmBasisFallsBackCold: a warm basis whose basic columns are
// linearly dependent must be rejected by the deterministic refactorization —
// installBasis fails, the solve silently falls back to the cold path, and the
// reported solution is still optimal (with WarmStarted false).
func TestSingularWarmBasisFallsBackCold(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, Infinity, -3)
	y := p.AddVariable("y", 0, Infinity, -5)
	p.AddConstraint("c1", []Entry{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint("c2", []Entry{{x, 2}, {y, 2}}, LE, 9)

	// Both structural columns basic: the basis matrix is [[1,1],[2,2]],
	// rank 1. Dimensionally the basis is compatible, so only the singularity
	// check can reject it.
	singular := &Basis{
		Basic:  []int32{0, 1},
		Status: []BasisStatus{BasisBasic, BasisBasic, BasisAtLower, BasisAtLower},
	}
	ref := solveOrFatal(t, p, Options{})
	sol := solveOrFatal(t, p, Options{WarmBasis: singular})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.WarmStarted {
		t.Error("solve claims a warm start from a singular basis")
	}
	if math.Abs(sol.Objective-ref.Objective) > 1e-9 {
		t.Errorf("fallback objective %g, cold reference %g", sol.Objective, ref.Objective)
	}
}

// TestIllConditionedGoldenVertex: a Hilbert-matrix LP is about as badly
// conditioned as small dense problems get; the solver must still land on the
// canonical optimum that the retired dense tableau core and every retired
// pricing rule agreed on, and land on it identically when solved again.
func TestIllConditionedGoldenVertex(t *testing.T) {
	const n = 6
	p := NewProblem()
	vars := make([]int, n)
	for j := 0; j < n; j++ {
		vars[j] = p.AddVariable(fmt.Sprintf("h%d", j), 0, 10, -1)
	}
	for i := 0; i < n; i++ {
		row := make([]Entry, n)
		rhs := 0.0
		for j := 0; j < n; j++ {
			coef := 1 / float64(i+j+1)
			row[j] = Entry{vars[j], coef}
			rhs += coef
		}
		p.AddConstraint(fmt.Sprintf("r%d", i), row, LE, rhs)
	}

	// x5 = Σ_{j<6} 1/(6+j) saturates row r5; every other variable is zero.
	golden := []float64{0, 0, 0, 0, 0, 8.101984126984128}
	const goldenObj = -8.101984126984128

	sol := solveOrFatal(t, p, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-goldenObj) > 1e-6 {
		t.Errorf("objective %g, golden %g", sol.Objective, goldenObj)
	}
	for j := range golden {
		if math.Abs(sol.X[j]-golden[j]) > 1e-6 {
			t.Errorf("x[%d] = %g, golden %g", j, sol.X[j], golden[j])
		}
	}
	checkFeasible(t, p, sol.X)
	again := solveOrFatal(t, p, Options{})
	for j := range sol.X {
		if again.X[j] != sol.X[j] {
			t.Errorf("rerun x[%d] = %v, first solve %v", j, again.X[j], sol.X[j])
		}
	}
}
