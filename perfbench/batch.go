package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rficlayout/internal/circuits"
	"rficlayout/internal/engine"
	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
	"rficlayout/internal/report"
)

// drcOptions are the flow's own DRC settings: exact lengths within the 10 nm
// default tolerance, pins within 2 nm.
var drcOptions = layout.CheckOptions{PinTolerance: 2}

// unmatchedTol is the length error (nm) above which a strip counts as
// unmatched, the rounding tolerance of the DRC length rule.
const unmatchedTol = 10

// After every flow the latest layout of each cell is re-served (parsed and
// DRC-checked from its bytes) to time the hit path: reserveBatches timed
// batches of reserveBatch back-to-back re-serves each.
const (
	reserveBatches = 4
	reserveBatch   = 20
)

// cell is one circuit of a batch workload with its solve options.
type cell struct {
	name    string
	circuit *netlist.Circuit
	opts    pilp.Options
}

// batchCells builds the cells of a batch workload. The circuits are the
// paper's fixed set; the seed only permutes the order they run in.
func batchCells(cfg config) ([]cell, error) {
	var cells []cell
	switch cfg.workload {
	case "table1":
		for _, s := range circuits.Table1() {
			cells = append(cells,
				cell{s.Name + "-A", circuits.Build(s), flowOptions(noRefine)},
				cell{s.Name + "-B", circuits.BuildSmallArea(s), flowOptions(noRefine)})
		}
	case "refine":
		two, err := twostage(cfg)
		if err != nil {
			return nil, err
		}
		s, err := circuits.BySpecName("buffer60")
		if err != nil {
			return nil, err
		}
		cells = []cell{
			{"twostage", two, flowOptions(oneRefine)},
			{"buffer60-A", circuits.Build(s), flowOptions(oneRefine)},
			{"buffer60-B", circuits.BuildSmallArea(s), flowOptions(oneRefine)},
		}
	}
	if len(cfg.cells) > 0 {
		keep := map[string]bool{}
		for _, n := range cfg.cells {
			keep[n] = true
		}
		var kept []cell
		for _, c := range cells {
			if keep[c.name] {
				kept = append(kept, c)
			}
		}
		cells = kept
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("workload %s has no cells", cfg.workload)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells, nil
}

func twostage(cfg config) (*netlist.Circuit, error) {
	return netlist.ParseFile(filepath.Join(cfg.root, "testdata", "twostage.rfic"))
}

// warmUp runs the twostage flow once, so lazy initialisation is paid in
// set-up rather than in the first measured flow.
func warmUp(ctx context.Context, cfg config) error {
	c, err := twostage(cfg)
	if err != nil {
		return err
	}
	res, err := pilp.GenerateCtx(ctx, c, flowOptions(oneRefine))
	if err != nil {
		return fmt.Errorf("warm-up flow: %w", err)
	}
	if !res.Layout.Complete() {
		return fmt.Errorf("warm-up flow produced an incomplete layout")
	}
	return nil
}

// flowRecord is one measured flow: netlist in, DRC-checked layout out.
type flowRecord struct {
	cell       cell
	latency    time.Duration // engine.Run plus the DRC check
	check      time.Duration
	mem        memDelta // allocation and GC of the flow, its check and formatting
	res        engine.Result
	text       string
	violations int
	// phase durations from the snapshots' elapsed deltas.
	phases [3]time.Duration
	// refined reports phase 3 scoring better than phase 2.
	refined bool
}

// passRecord is one pass over the cells. Only the last pass of a window may
// be incomplete, cut short when the measuring time ran out.
type passRecord struct {
	wall     time.Duration
	flows    []flowRecord
	mem      memDelta
	complete bool
}

// snapshotPhases are the pilp snapshot names that close phases 1–3.
var snapshotPhases = [3]string{"phase1", "phase2", "phase3"}

// runPass runs the cells in order, stopping after the flow that ends past
// stop (never, when stop is zero), and calls after with each flow and the
// pass's span. The pass's wall time and memory counts cover the flows, not
// the calls.
func runPass(ctx context.Context, cells []cell, tr *tracer, passNo int, stop time.Time, after func(f flowRecord, passID int)) passRecord {
	passID := tr.begin(0, fmt.Sprintf("pass%d", passNo), "bench.pass")
	start := time.Now()
	var p passRecord
	var outside time.Duration
	for _, c := range cells {
		if !stop.IsZero() && !time.Now().Before(stop) {
			break
		}
		traceID := fmt.Sprintf("pass%d/%s", passNo, c.name)
		fm0 := readMem()
		t0 := time.Now()
		r := engine.Run(ctx, []engine.Job{{Name: c.name, Circuit: c.circuit, Options: c.opts}}, engine.Options{Parallel: 1})[0]
		t1 := time.Now()
		f := flowRecord{cell: c, res: r}
		if r.Err == nil && r.Result != nil {
			f.violations = len(r.Result.Layout.Check(drcOptions))
		}
		t2 := time.Now()
		f.latency, f.check = t2.Sub(t0), t2.Sub(t1)
		if r.Err == nil && r.Result != nil {
			f.text = layout.Format(r.Result.Layout)
			f.phases, f.refined = phaseSplit(r.Result)
		}
		f.mem = fm0.to(readMem())
		p.flows = append(p.flows, f)
		p.mem.allocMB += f.mem.allocMB
		p.mem.gcCount += f.mem.gcCount
		p.mem.pauseMS += f.mem.pauseMS

		jobID := tr.add(span{Parent: passID, Trace: traceID, Name: "engine.job", Start: t0, End: t1})
		at := t0
		for i, d := range f.phases {
			tr.add(span{Parent: jobID, Trace: traceID, Name: "pilp." + snapshotPhases[i], Start: at, End: at.Add(d)})
			at = at.Add(d)
		}
		tr.add(span{Parent: passID, Trace: traceID, Name: "layout.check", Start: t1, End: t2})
		t := time.Now()
		after(f, passID)
		outside += time.Since(t)
	}
	p.wall = time.Since(start) - outside
	tr.end(passID)
	p.complete = len(p.flows) == len(cells)
	return p
}

// phaseSplit derives per-phase durations from the snapshots' elapsed times
// and whether phase 3 improved on phase 2 by the flow's own score.
func phaseSplit(r *pilp.Result) (phases [3]time.Duration, refined bool) {
	var at [3]time.Duration
	var layouts [3]*layout.Layout
	for _, s := range r.Snapshots {
		for i, name := range snapshotPhases {
			if strings.HasPrefix(s.Phase, name) {
				at[i], layouts[i] = s.Elapsed, s.Layout
			}
		}
	}
	prev := time.Duration(0)
	for i := range at {
		if at[i] > prev {
			phases[i] = at[i] - prev
			prev = at[i]
		}
	}
	if layouts[1] != nil && layouts[2] != nil {
		refined = pilp.Score(layouts[2]) < pilp.Score(layouts[1])
	}
	return phases, refined
}

// reserve times the hit path on every layout in served, adding the
// per-re-serve latency of each batch to hits by cell: parse the stored bytes
// against the circuit and DRC-check them, as a server does when it answers
// from its cache.
func reserve(served map[string]flowRecord, tr *tracer, passID int, hits map[string][]float64) {
	for name, f := range served {
		for k := 0; k < reserveBatches; k++ {
			// Every batch starts from a collected heap, so each holds the
			// same GC work; its re-serves run back to back on a warm cache.
			// A single re-serve is too short to time steadily: it lands
			// either inside a GC cycle or not, and from a collected heap it
			// starts on a cold cache.
			runtime.GC()
			t0 := time.Now()
			for r := 0; r < reserveBatch; r++ {
				if l, err := layout.ParseLayoutString(f.text, f.cell.circuit); err == nil {
					l.Check(drcOptions)
				}
			}
			t1 := time.Now()
			hits[name] = append(hits[name], ms(t1.Sub(t0))/reserveBatch)
			tr.add(span{Parent: passID, Trace: name, Name: "layout.reserve", Start: t0, End: t1})
		}
	}
}

// window runs passes over the cells for the measuring time. After every flow
// it re-serves the latest layout of every cell run so far, so each cell's hit
// path is timed at many moments spread over the window. The first pass
// always completes, so every cell is measured; a later pass stops after the
// flow that ends past the measuring time, so a run lasts the measuring time
// plus at most one flow and its re-serves.
func window(ctx context.Context, cells []cell, seconds time.Duration, tr *tracer, firstPass int) ([]passRecord, map[string][]float64) {
	var passes []passRecord
	hits := map[string][]float64{}
	served := map[string]flowRecord{}
	after := func(f flowRecord, passID int) {
		if f.text != "" {
			served[f.cell.name] = f
		}
		reserve(served, tr, passID, hits)
	}
	start := time.Now()
	deadline := start.Add(seconds)
	for n := firstPass; ; n++ {
		var stop time.Time
		if n > firstPass {
			stop = deadline
		}
		passes = append(passes, runPass(ctx, cells, tr, n, stop, after))
		if time.Since(start) >= seconds || ctx.Err() != nil {
			return passes, hits
		}
	}
}

func runBatch(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	var cells []cell
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		// Every set-up starts from a collected heap, so no GC cycle left
		// over from the one before lands in its time.
		runtime.GC()
		t0 := time.Now()
		var err error
		if cells, err = batchCells(cfg); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	order := make([]string, len(cells))
	for i, c := range cells {
		order[i] = c.name
	}
	out.info["order"] = order

	// A traced run splits the measuring time between an untraced and a
	// traced window, so it takes as long as an untraced run.
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	rss := sampleRSS(rssEvery)
	passes, hits := window(ctx, cells, seconds, nil, 0)
	rssWindow(rss.finish(), out)
	checked, layerPasses := passes, passes
	if cfg.trace {
		// The difference in complete-pass wall time between the two windows
		// is the tracing overhead.
		tr := &tracer{}
		traced, _ := window(ctx, cells, seconds, tr, len(passes))
		spans := tr.snapshot()
		out.setSelfTimes(spans)
		out.layer["trace.overhead_pct"] = 100 * (medianWall(traced)/medianWall(passes) - 1)
		path, err := writeSpans(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed), spans)
		if err != nil {
			return nil, err
		}
		out.info["trace_file"] = path
		layerPasses = traced
		checked = append(passes[:len(passes):len(passes)], traced...)
	}
	verifyPasses(checked, out)
	if err := checkDigests(cfg, passes[0], out); err != nil {
		return nil, err
	}
	batchEndToEnd(passes, hits, out)
	batchLayers(layerPasses, out)
	out.info["passes"] = len(checked)
	return out, nil
}

// medianWall is the median wall time of the complete passes.
func medianWall(ps []passRecord) float64 {
	var w []float64
	for _, p := range ps {
		if p.complete {
			w = append(w, p.wall.Seconds())
		}
	}
	return median(w)
}

// verifyPasses fails every flow that errored, was interrupted by a wall-clock
// limit, whose layout does not round-trip through the parser, or whose layout
// bytes or effort counts differ from the same cell's first pass.
func verifyPasses(passes []passRecord, out *outcome) {
	first := map[string]flowRecord{}
	for _, p := range passes {
		for _, f := range p.flows {
			out.attempted++
			name := f.cell.name
			r := f.res
			switch {
			case r.Err != nil:
				out.fail("%s: %v", name, r.Err)
				continue
			case r.Result.InterruptedSolves > 0:
				out.fail("%s: %d solves hit a wall-clock limit", name, r.Result.InterruptedSolves)
				continue
			case r.Partial:
				out.fail("%s: partial result", name)
				continue
			case !r.Result.Layout.Complete():
				out.fail("%s: incomplete layout", name)
				continue
			}
			if l, err := layout.ParseLayoutString(f.text, f.cell.circuit); err != nil || !l.Complete() || layout.Format(l) != f.text {
				out.fail("%s: layout does not round-trip through the parser (%v)", name, err)
				continue
			}
			ref, seen := first[name]
			if !seen {
				first[name] = f
				continue
			}
			if f.text != ref.text {
				out.fail("%s: layout bytes differ between passes", name)
			} else if r.Nodes != ref.res.Nodes || r.LP.Pivots != ref.res.LP.Pivots || r.LP.Refactorizations != ref.res.LP.Refactorizations {
				out.fail("%s: effort counts differ between passes", name)
			}
		}
	}
}

// checkDigests compares this run's layout digests with those an earlier run
// of the same benchmark binary left in the checkout, and records them when
// none exist yet: passes in different processes must agree byte for byte.
func checkDigests(cfg config, p passRecord, out *outcome) error {
	bin, err := binaryDigest()
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.out, "digests", bin[:16])
	path := filepath.Join(dir, cfg.workload+".json")
	known := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &known); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	changed := false
	for _, f := range p.flows {
		if f.text == "" {
			continue
		}
		sum := sha256.Sum256([]byte(f.text))
		got := hex.EncodeToString(sum[:])
		want, ok := known[f.cell.name]
		switch {
		case !ok:
			known[f.cell.name] = got
			changed = true
		case want != got:
			out.fail("%s: layout bytes differ from an earlier run of this binary", f.cell.name)
		}
	}
	if !changed {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating digest directory: %w", err)
	}
	data, err := json.Marshal(known)
	if err != nil {
		return err
	}
	tmp := path + fmt.Sprintf(".%d.tmp", os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("writing digests: %w", err)
	}
	return os.Rename(tmp, path)
}

// binaryDigest is the SHA-256 of the running executable: digests recorded by
// one build are only compared against runs of the same build.
func binaryDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating the benchmark binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func batchEndToEnd(passes []passRecord, hits map[string][]float64, out *outcome) {
	lat, alloc := map[string][]float64{}, map[string][]float64{}
	for _, p := range passes {
		for _, f := range p.flows {
			lat[f.cell.name] = append(lat[f.cell.name], ms(f.latency))
			alloc[f.cell.name] = append(alloc[f.cell.name], f.mem.allocMB)
		}
	}
	// A run holds one to a few flows of each cell, the last pass may be cut
	// short, and the cells' latencies differ several-fold. So every metric
	// is taken over the cells' medians, as of a pass made of each cell's
	// median flow: a percentile of the pooled flows would jump between cells
	// as the number of flows of each changes.
	latMed := groupMedians(lat)
	var passMS, passMB float64
	for name, m := range latMed {
		passMS += m
		passMB += median(alloc[name])
	}
	out.e2e["throughput_per_s"] = float64(len(latMed)) / (passMS / 1000)
	out.e2e["miss_p50_ms"] = quantileOfMedians(lat, 0.5)
	out.e2e["miss_p90_ms"] = quantileOfMedians(lat, 0.9)
	out.e2e["hit_p50_ms"] = quantileOfMedians(hits, 0.5)
	out.e2e["alloc_mb"] = passMB
	out.info["flow_samples"] = sampleCount(lat)
	out.info["miss_ms_by_circuit"] = latMed
	out.info["hit_samples"] = sampleCount(hits)
	out.info["hit_p50_ms_by_circuit"] = groupMedians(hits)

	// Quality of the distinct circuits, from the first (complete) pass.
	var q quality
	for _, f := range passes[0].flows {
		if f.res.Err == nil && f.res.Result != nil {
			q.add(f.res.Result.Layout, f.violations)
		}
	}
	q.report(out)
}

// quality sums the layout-quality counts the paper reports over circuits.
type quality struct {
	unmatched, bends, violations int
	lengthErr                    geom.Coord
}

func (q *quality) add(l *layout.Layout, violations int) {
	m := l.Metrics()
	q.unmatched += report.UnmatchedStrips(l, unmatchedTol)
	q.bends += m.TotalBends
	q.violations += violations
	q.lengthErr += m.TotalLengthError
}

func (q quality) report(out *outcome) {
	out.e2e["unmatched_strips"] = float64(q.unmatched)
	out.e2e["total_bends"] = float64(q.bends)
	out.e2e["drc_violations"] = float64(q.violations)
	out.e2e["length_error_um"] = geom.Microns(q.lengthErr)
}

// medianPass returns the complete pass whose wall time is closest to the
// median, so the per-layer timings and counts come from one pass (every
// count is identical across passes).
func medianPass(passes []passRecord) passRecord {
	target := medianWall(passes)
	mid := passes[0]
	for _, p := range passes[1:] {
		if p.complete && math.Abs(p.wall.Seconds()-target) < math.Abs(mid.wall.Seconds()-target) {
			mid = p
		}
	}
	return mid
}

// batchLayers reports the per-layer metrics of the median pass.
func batchLayers(passes []passRecord, out *outcome) {
	p := medianPass(passes)
	m := out.layer
	var busy, check time.Duration
	var phases [3]time.Duration
	var pivots, refacts, solves, warmHits, warmOffered, nodes, interrupted, failed, refined, peak int
	for _, f := range p.flows {
		r := f.res
		busy += r.Runtime
		check += f.check
		if r.Err != nil || r.Result == nil {
			failed++
			continue
		}
		pivots += r.LP.Pivots
		refacts += r.LP.Refactorizations
		solves += r.LP.WarmHits + r.LP.WarmMisses + r.LP.ColdSolves
		warmHits += r.LP.WarmHits
		warmOffered += r.LP.WarmHits + r.LP.WarmMisses
		if r.LP.PeakEta > peak {
			peak = r.LP.PeakEta
		}
		nodes += r.Nodes
		interrupted += r.Result.InterruptedSolves
		for i, d := range f.phases {
			phases[i] += d
		}
		if f.refined {
			refined++
		}
	}
	m["lp.pivots"] = float64(pivots)
	m["lp.refactorizations"] = float64(refacts)
	m["lp.solves"] = float64(solves)
	m["lp.pivots_per_solve"] = ratio(float64(pivots), float64(solves))
	m["lp.warm_hit_rate"] = ratio(float64(warmHits), float64(warmOffered))
	m["lp.peak_eta"] = float64(peak)
	m["lp.us_per_pivot"] = ratio(float64(busy)/float64(time.Microsecond), float64(pivots))
	m["milp.nodes"] = float64(nodes)
	m["milp.nodes_per_s"] = ratio(float64(nodes), busy.Seconds())
	for i, d := range phases {
		m[fmt.Sprintf("pilp.phase%d_s", i+1)] = d.Seconds()
	}
	m["pilp.refine_useful_ratio"] = ratio(float64(refined), float64(len(p.flows)))
	m["pilp.interrupted_solves"] = float64(interrupted)
	m["engine.busy_s"] = busy.Seconds()
	m["engine.jobs_failed"] = float64(failed)
	m["layout.check_ms"] = ms(check)
	m["gc.count"] = p.mem.gcCount
	m["gc.pause_ms"] = p.mem.pauseMS
}
