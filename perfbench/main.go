// Command perfbench is the benchmark of record for rficlayout. It runs one
// workload for a fixed measuring time and prints every end-to-end metric (or,
// with --trace 1, every per-layer metric) by name and unit; the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
//
// Workloads:
//
//	table1     the six Table-1 cells through engine.Run, phase 3 off
//	refine     twostage plus buffer60 A/B with one refinement iteration
//	serve-mix  an in-process HTTP server, one closed-loop client, a seeded
//	           mix of cache hits, near-duplicates and novel fuzz circuits
//
// Every solve runs under the deterministic node budgets of flowOptions, never
// a binding wall-clock limit, so the work done is the same on every machine.
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
//
// DESIGN.md in this directory documents the metrics and what each per-layer
// metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rficlayout/internal/geom"
	"rficlayout/internal/lp"
	"rficlayout/internal/pilp"
)

// flowOptions pins every pilp.Options field, so a change to the library's
// defaults cannot silently change the measured workload. The node budgets
// bind; the wall-clock ceilings never do (pilp.interrupted_solves checks it).
func flowOptions(refineIterations int) pilp.Options {
	return pilp.Options{
		ChainPoints:         2,
		MaxChainPoints:      3,
		Confinement:         geom.FromMicrons(10),
		PairRadius:          geom.FromMicrons(30),
		StripTimeLimit:      60 * time.Second,
		PhaseTimeLimit:      300 * time.Second,
		StripNodeLimit:      25,
		Phase1NodeLimit:     1000,
		Workers:             1,
		MaxRefineIterations: refineIterations,
		TryRotations:        false,
		ShardSize:           0,
		ShardIterations:     0,
		ShardBoundaryTol:    0,
		PivotRule:           lp.PivotDantzig,
		LPCore:              lp.CoreSparse,
		ColdLP:              false,
		AcceptPartial:       false,
		Logf:                nil,
	}
}

// MaxRefineIterations values: -1 skips phase 3, 1 runs one refinement pass.
const (
	noRefine  = -1
	oneRefine = 1
)

type metricDef struct{ name, unit string }

// endToEnd lists the user-visible metrics, printed with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"success_pct", "%"},
	{"alloc_mb", "MB"},
	{"rss_p90_mb", "MB"},
	{"unmatched_strips", "count"},
	{"total_bends", "count"},
	{"drc_violations", "count"},
	{"length_error_um", "um"},
}

// perLayer lists the single-layer metrics, printed with --trace 1. A metric
// a workload never exercises reads zero there.
var perLayer = append([]metricDef{
	{"lp.pivots", "count"},
	{"lp.refactorizations", "count"},
	{"lp.solves", "count"},
	{"lp.pivots_per_solve", "ratio"},
	{"lp.warm_hit_rate", "ratio"},
	{"lp.peak_eta", "count"},
	{"lp.us_per_pivot", "us"},
	{"milp.nodes", "count"},
	{"milp.nodes_per_s", "1/s"},
	{"pilp.phase1_s", "s"},
	{"pilp.phase2_s", "s"},
	{"pilp.phase3_s", "s"},
	{"pilp.refine_useful_ratio", "ratio"},
	{"pilp.interrupted_solves", "count"},
	{"engine.busy_s", "s"},
	{"engine.jobs_failed", "count"},
	{"layout.check_ms", "ms"},
	{"gc.count", "count"},
	{"gc.pause_ms", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p90_ms", "ms"},
	{"server.solve_p50_ms", "ms"},
	{"server.worker_util", "ratio"},
	{"server.rejected", "count"},
	{"server.coalesced", "count"},
	{"server.failed", "count"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.bytes", "bytes"},
	{"cache.get_us_p50", "us"},
	{"cache.put_us_p50", "us"},
	{"client.sent", "count"},
	{"client.succeeded", "count"},
	{"client.failed", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"machine.steal_pct", "%"},
}, selfTimeDefs()...)

func selfTimeDefs() []metricDef {
	defs := make([]metricDef, len(spanNames))
	for i, n := range spanNames {
		defs[i] = metricDef{"self." + n + "_ms", "ms"}
	}
	return defs
}

// config is one invocation. Tests shorten it; the command line fills the
// rest from flags.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// root is the checkout root (where testdata/ lives); out is where
	// traces, layout digests and the serve-mix cache directories go.
	root, out string
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// cells, when non-empty, restricts a batch workload to these cells.
	cells []string
	// hotPool is the number of serve-mix circuits pre-solved in set-up.
	hotPool int
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	// info is extra detail printed on the record line (never gated).
	info map[string]interface{}
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]interface{}{}}
}

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// setSelfTimes fills the self.* metrics and the span count from a trace.
func (o *outcome) setSelfTimes(spans []span) {
	self := selfTimes(spans)
	for _, n := range spanNames {
		o.layer["self."+n+"_ms"] = self[n]
	}
	o.layer["trace.spans"] = float64(len(spans))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(ctx context.Context, cfg config) (*outcome, error) {
	switch cfg.workload {
	case "table1", "refine":
		return runBatch(ctx, cfg)
	case "serve-mix":
		return runServe(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want table1, refine or serve-mix)", cfg.workload)
}

func main() {
	var (
		cfg     config
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: table1, refine or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 15, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.root = "."
	cfg.out = filepath.Join(".bench_build", "perfbench")
	cfg.setups = 5
	cfg.hotPool = 8

	steal := startSteal()
	out, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host := steal.stop()
	out.layer["machine.steal_pct"] = host.StealPct
	out.info["vmhwm_mb"] = statusMB("VmHWM")
	if out.attempted > 0 {
		out.e2e["success_pct"] = 100 * float64(out.attempted-out.failed) / float64(out.attempted)
	}

	defs := endToEnd
	values := out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
	}
	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, f := range out.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	record, err := json.Marshal(map[string]interface{}{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": seconds, "trace": cfg.trace,
		"machine": host, "detail": out.info,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("record %s\n", record)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
