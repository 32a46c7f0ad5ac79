package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/circuits/fuzz"
	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
	"rficlayout/internal/server"
)

// Serve-mix shape: one closed-loop client and one solver worker (the
// request mix is mixUnits). The client sends a twin beside the request it
// repeats, over a second connection, so at most two requests are in flight.
const (
	serveConns   = 2
	serveWorkers = 1
	// lruSlack sizes the memory tier above the hot pool, so novel entries
	// evict each other before they evict hot ones.
	lruSlack = 16
)

type requestKind int

const (
	kindHit requestKind = iota
	kindNear
	kindNovel
	kindTwin
)

func (k requestKind) String() string {
	return [...]string{"hit", "near", "novel", "twin"}[k]
}

// request is one solve request of the stream.
type request struct {
	kind    requestKind
	circuit *netlist.Circuit
	body    []byte
	key     string
}

func newRequest(kind requestKind, c *netlist.Circuit) request {
	return request{kind: kind, circuit: c, body: []byte(netlist.Format(c)), key: cache.Key(c, serveOptions())}
}

func serveOptions() pilp.Options { return flowOptions(noRefine) }

// hotPool is the fixed set of circuits every serve-mix run pre-solves and
// then repeats: fuzz seeds 0 to n-1, each a different fuzz profile.
// Fixing it (rather than drawing it from the workload seed) keeps the
// quality counts and the hit path identical across seeds.
func hotPool(n int) []request {
	pool := make([]request, n)
	for i := range pool {
		c, _ := fuzz.Generate(int64(i))
		pool[i] = newRequest(kindHit, c)
	}
	return pool
}

// The novel circuits come from a fixed pool of novelPool fuzz circuits
// (seeds novelBase on), and every novel request is a request-unique variant
// of one of them (see nearDuplicate), so it always misses the cache. Block b
// of every stream draws pool members b·novelPerBlock to b·novelPerBlock+2
// (mod novelPool), so each member recurs every few blocks, spread over the
// whole run: the workload seed decides the traffic (which request kind comes
// when, which hot circuit is repeated or perturbed), not which circuits are
// solved. Miss latencies are grouped by the circuit a miss derives from, and
// the miss metrics are taken over those groups' medians.
const (
	novelBase     = 1_000_000
	novelPool     = 12
	novelPerBlock = 3
)

// mixUnits make up one block of the request stream: every consecutive block
// of ten requests holds exactly five hits, one near-duplicate, three novel
// circuits and one twin, shuffled by the seed. A twin repeats the novel
// circuit right before it; the client sends the two at once, so the twin
// joins the solve in flight (singleflight). A run's traffic has the same mix
// whatever the seed; only the order varies.
var mixUnits = [][]requestKind{
	{kindHit}, {kindHit}, {kindHit}, {kindHit}, {kindHit},
	{kindNear}, {kindNovel}, {kindNovel}, {kindNovel, kindTwin},
}

const blockLen = 10

// stream is the request stream of one seed. Request i is a pure function of
// the seed and i, generated when a client first asks for it, so set-up pays
// for no request that is never sent.
type stream struct {
	seed      int64
	pool      []request
	nearOrder []int
	novel     map[int64]*netlist.Circuit

	mu     sync.Mutex
	blocks map[int][]request
}

func newStream(seed int64, pool []request) *stream {
	return &stream{
		seed:      seed,
		pool:      pool,
		nearOrder: rand.New(rand.NewSource(seed)).Perm(len(pool)),
		novel:     map[int64]*netlist.Circuit{},
		blocks:    map[int][]request{},
	}
}

// at returns request i.
func (s *stream) at(i int) request {
	b := i / blockLen
	s.mu.Lock()
	defer s.mu.Unlock()
	blk, ok := s.blocks[b]
	if !ok {
		blk = s.block(b)
		s.blocks[b] = blk
	}
	return blk[i%blockLen]
}

// block generates block b. Hits repeat a random hot circuit; near-duplicates
// perturb the hot circuits in a seeded round-robin; novel requests perturb
// the novel pool's members in turn.
func (s *stream) block(b int) []request {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(b)))
	units := append([][]requestKind(nil), mixUnits...)
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	member := int64(b) * novelPerBlock
	reqs := make([]request, 0, blockLen)
	for _, u := range units {
		for _, kind := range u {
			at := b*blockLen + len(reqs)
			switch kind {
			case kindHit:
				reqs = append(reqs, s.pool[rng.Intn(len(s.pool))])
			case kindNear:
				hot := s.pool[s.nearOrder[b%len(s.pool)]]
				reqs = append(reqs, newRequest(kindNear, nearDuplicate(hot.circuit, at)))
			case kindNovel:
				base := s.novelMember(member % novelPool)
				member++
				reqs = append(reqs, newRequest(kindNovel, nearDuplicate(base, at)))
			case kindTwin:
				twin := reqs[len(reqs)-1]
				twin.kind = kindTwin
				reqs = append(reqs, twin)
			}
		}
	}
	return reqs
}

// novelMember returns member m of the novel pool, generating it once.
func (s *stream) novelMember(m int64) *netlist.Circuit {
	c, ok := s.novel[m]
	if !ok {
		c, _ = fuzz.Generate(novelBase + m)
		s.novel[m] = c
	}
	return c
}

// nearDuplicate copies c with its first strip's target length stretched by
// an amount unique to stream position i: the same problem up to a small
// change, so every variant of a circuit costs about the same to solve, under
// the same circuit name, and a different cache key.
func nearDuplicate(c *netlist.Circuit, i int) *netlist.Circuit {
	dup, err := netlist.ParseString(netlist.Format(c))
	if err != nil {
		panic(fmt.Sprintf("fuzz circuit does not round-trip: %v", err))
	}
	dup.Microstrips[0].TargetLength += geom.FromMicrons(0.5) + geom.Coord(10*(i+1))
	return dup
}

// timedCache wraps the server's cache, timing every Get and Put and, while a
// tracer is installed, recording them as spans keyed by content address.
type timedCache struct {
	inner *cache.Tiered
	tr    atomic.Pointer[tracer]

	mu         sync.Mutex
	gets, puts []float64 // microseconds
}

func (c *timedCache) record(dst *[]float64, name, key string, start time.Time) {
	end := time.Now()
	c.mu.Lock()
	*dst = append(*dst, float64(end.Sub(start))/float64(time.Microsecond))
	c.mu.Unlock()
	c.tr.Load().add(span{Trace: "cache", Name: name, Key: key, Start: start, End: end})
}

func (c *timedCache) Get(key string) (cache.Entry, bool) {
	start := time.Now()
	e, ok := c.inner.Get(key)
	c.record(&c.gets, "cache.get", key, start)
	return e, ok
}

func (c *timedCache) Put(key string, e cache.Entry) {
	start := time.Now()
	c.inner.Put(key, e)
	c.record(&c.puts, "cache.put", key, start)
}

func (c *timedCache) Stats() cache.Stats { return c.inner.Stats() }

// reset drops the recorded timings and installs tr (nil stops tracing).
func (c *timedCache) reset(tr *tracer) {
	c.mu.Lock()
	c.gets, c.puts = nil, nil
	c.mu.Unlock()
	c.tr.Store(tr)
}

func (c *timedCache) p50s() (get, put float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return median(c.gets), median(c.puts)
}

// service is one in-process server behind a loopback listener.
type service struct {
	srv    *server.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	cache  *timedCache
	dir    string

	stopOnce sync.Once
	stopErr  error
}

func startService(dir string, lruEntries int) (*service, error) {
	disk, err := cache.NewDir(dir)
	if err != nil {
		return nil, err
	}
	tc := &timedCache{inner: cache.NewTiered(cache.NewLRU(lruEntries, 64<<20), disk)}
	srv := server.New(server.Config{
		Workers:        serveWorkers,
		QueueDepth:     64,
		MaxSolveTime:   2 * time.Minute,
		SolveOptions:   serveOptions(),
		Cache:          tc,
		JobRetention:   256,
		MaxBodyBytes:   1 << 20,
		RetryAfterHint: time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveConns}, Timeout: 3 * time.Minute},
		cache:  tc,
		dir:    dir,
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serve loop, stops the worker
// pool and removes the cache directory. Later calls return the first result.
func (s *service) stop() error {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.http.Shutdown(ctx)
		if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		s.srv.Close()
		s.client.CloseIdleConnections()
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
		s.stopErr = err
	})
	return s.stopErr
}

// reply is one completed HTTP exchange.
type reply struct {
	idx        int
	req        request
	start, end time.Time
	code       int
	body       []byte
	err        error
}

func (s *service) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+"/v1/solve", "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// health is the subset of /healthz the benchmark reads.
type health struct {
	Failed      int64        `json:"failed"`
	Rejected    int64        `json:"rejected"`
	Coalesced   int64        `json:"coalesced"`
	CacheHits   int64        `json:"cache_hits"`
	CacheMisses int64        `json:"cache_misses"`
	LPPivots    int64        `json:"lp_pivots"`
	Cache       *cache.Stats `json:"cache"`
}

func (s *service) health() (health, error) {
	var h health
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("decoding /healthz: %w", err)
	}
	if h.Cache == nil {
		h.Cache = &cache.Stats{}
	}
	return h, nil
}

// solveReply is the subset of a /v1/solve answer the benchmark checks.
type solveReply struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	CacheHit bool   `json:"cache_hit"`
	Partial  bool   `json:"partial"`
	Layout   string `json:"layout"`
	Error    string `json:"error"`
	Stats    *struct {
		RuntimeNS         int64 `json:"runtime_ns"`
		Nodes             int   `json:"nodes"`
		InterruptedSolves int   `json:"interrupted_solves"`
		LP                *struct {
			Pivots           int `json:"pivots"`
			Refactorizations int `json:"refactorizations"`
			WarmHits         int `json:"warm_hits"`
			WarmMisses       int `json:"warm_misses"`
			ColdSolves       int `json:"cold_solves"`
		} `json:"lp"`
	} `json:"stats"`
}

// serveSetup is one set-up: the hot pool, a warm-up flow, a started service
// with the hot pool pre-solved, and the request stream.
type serveSetup struct {
	svc    *service
	pool   []request
	stream *stream
	// filled maps a content key to the layout bytes of the miss that filled
	// it; every later answer for the key must repeat them.
	filled map[string]string
}

func setUpServe(ctx context.Context, cfg config) (*serveSetup, error) {
	pool := hotPool(cfg.hotPool)
	st := &serveSetup{pool: pool, stream: newStream(cfg.seed, pool), filled: map[string]string{}}
	if err := warmUp(ctx, cfg); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", cfg.out, err)
	}
	dir, err := os.MkdirTemp(cfg.out, "serve-cache-")
	if err != nil {
		return nil, fmt.Errorf("creating cache directory: %w", err)
	}
	if st.svc, err = startService(dir, cfg.hotPool+lruSlack); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for _, r := range pool {
		code, body, err := st.svc.post(r.body)
		if err != nil || code != http.StatusOK {
			st.svc.stop()
			return nil, fmt.Errorf("pre-solving %s: status %d: %v %s", r.circuit.Name, code, err, body)
		}
		var sr solveReply
		if err := json.Unmarshal(body, &sr); err != nil {
			st.svc.stop()
			return nil, fmt.Errorf("pre-solving %s: %w", r.circuit.Name, err)
		}
		st.filled[r.key] = sr.Layout
	}
	return st, nil
}

// drive runs the closed-loop client until the measuring time has elapsed
// and returns every completed exchange in request order. A request followed
// by its twin is sent together with it, and the client goes on when both
// have been answered.
func drive(st *serveSetup, seconds time.Duration) ([]reply, time.Duration) {
	start := time.Now()
	deadline := start.Add(seconds)
	var all []reply
	send := func(i int) reply {
		r := reply{idx: i, req: st.stream.at(i)}
		r.start = time.Now()
		r.code, r.body, r.err = st.svc.post(r.req.body)
		r.end = time.Now()
		return r
	}
	for i := 0; time.Now().Before(deadline); i++ {
		if st.stream.at(i+1).kind != kindTwin {
			all = append(all, send(i))
			continue
		}
		var twin reply
		done := make(chan struct{})
		go func(i int) {
			defer close(done)
			twin = send(i)
		}(i + 1)
		lead := send(i)
		<-done
		all = append(all, lead, twin)
		i++
	}
	return all, time.Since(start)
}

// windowResult is what one measured serve-mix window observed.
type windowResult struct {
	replies []reply
	decoded []*solveReply
	// follower marks the answers that shared a solve another request of the
	// window started (coalesced followers); leaders are the misses.
	follower       []bool
	elapsed        time.Duration
	mem            memDelta
	before, after  health
	getP50, putP50 float64
	spans          []span
	// hitLat holds the hot-pool hits, missLat the misses, both by the name
	// of the circuit they are or derive from.
	hitLat, missLat  map[string][]float64
	followLat        []float64
	queueLat, solves []float64
	twins            int
}

func measureServe(st *serveSetup, seconds time.Duration, tr *tracer) (*windowResult, error) {
	w := &windowResult{hitLat: map[string][]float64{}, missLat: map[string][]float64{}}
	var err error
	if w.before, err = st.svc.health(); err != nil {
		return nil, err
	}
	st.svc.cache.reset(tr)
	m0 := readMem()
	w.replies, w.elapsed = drive(st, seconds)
	w.mem = m0.to(readMem())
	w.getP50, w.putP50 = st.svc.cache.p50s()
	st.svc.cache.reset(nil)
	if w.after, err = st.svc.health(); err != nil {
		return nil, err
	}
	w.decoded = make([]*solveReply, len(w.replies))
	// The leader of a solve is the earliest request whose answer carries
	// its job ID; later ones joined it in flight.
	leader := map[string]int{}
	for i, r := range w.replies {
		var sr solveReply
		if r.err != nil || json.Unmarshal(r.body, &sr) != nil || sr.Stats == nil {
			continue
		}
		w.decoded[i] = &sr
		if sr.CacheHit {
			continue
		}
		if j, ok := leader[sr.ID]; !ok || r.start.Before(w.replies[j].start) {
			leader[sr.ID] = i
		}
	}
	w.follower = make([]bool, len(w.replies))
	for i, r := range w.replies {
		if r.req.kind == kindTwin {
			w.twins++
		}
		sr := w.decoded[i]
		lat := ms(r.end.Sub(r.start))
		name := r.req.circuit.Name
		switch {
		case sr == nil:
		case sr.CacheHit:
			// A twin that arrives after its leader has finished is a hit
			// too, but not one of the hot pool's.
			if r.req.kind == kindHit {
				w.hitLat[name] = append(w.hitLat[name], lat)
			}
		case leader[sr.ID] != i:
			w.follower[i] = true
			w.followLat = append(w.followLat, lat)
		default:
			w.missLat[name] = append(w.missLat[name], lat)
			solve := time.Duration(sr.Stats.RuntimeNS)
			w.solves = append(w.solves, ms(solve))
			w.queueLat = append(w.queueLat, lat-ms(solve))
		}
	}
	if tr != nil {
		w.spans = traceRequests(tr, st, w)
	}
	return w, nil
}

// traceRequests derives the request spans of a window and attaches the cache
// spans recorded live to the innermost request span with the same key that
// contains them.
func traceRequests(tr *tracer, st *serveSetup, w *windowResult) []span {
	type owner struct {
		id         int
		start, end time.Time
	}
	byKey := map[string][]owner{}
	for i, r := range w.replies {
		key := r.req.key
		trace := fmt.Sprintf("req%d", r.idx)
		reqID := tr.add(span{Trace: trace, Name: "client.request", Key: key, Start: r.start, End: r.end})
		owners := []owner{{reqID, r.start, r.end}}
		if sr := w.decoded[i]; sr != nil && !sr.CacheHit && !w.follower[i] {
			split := r.end.Add(-time.Duration(sr.Stats.RuntimeNS))
			if split.Before(r.start) {
				split = r.start
			}
			q := tr.add(span{Parent: reqID, Trace: trace, Name: "server.queue", Key: key, Start: r.start, End: split})
			s := tr.add(span{Parent: reqID, Trace: trace, Name: "server.solve", Key: key, Start: split, End: r.end})
			owners = append(owners, owner{q, r.start, split}, owner{s, split, r.end})
		}
		byKey[key] = append(byKey[key], owners...)
	}
	for _, s := range tr.snapshot() {
		if s.Trace != "cache" {
			continue
		}
		best, bestLen := 0, time.Duration(-1)
		for _, o := range byKey[s.Key] {
			if s.Start.Before(o.start) || s.Start.After(o.end) {
				continue
			}
			if l := o.end.Sub(o.start); bestLen < 0 || l < bestLen {
				best, bestLen = o.id, l
			}
		}
		if best != 0 {
			tr.setParent(s.ID, best)
		}
	}
	return tr.snapshot()
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	var st *serveSetup
	defer func() {
		if st != nil {
			st.svc.stop()
		}
	}()
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.svc.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = setUpServe(ctx, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.e2e["setup_s"] = median(setups)

	// A traced run splits the measuring time between an untraced and a
	// traced window, so it takes about as long as an untraced run.
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	rss := sampleRSS(rssEvery)
	w, err := measureServe(st, seconds, nil)
	rssWindow(rss.finish(), out)
	if err != nil {
		return nil, err
	}
	checkT := verifyServe(st, w, out)
	layerWin := w
	if cfg.trace {
		// The traced window replays the same stream against a fresh server,
		// so the difference in throughput is the tracing overhead. Its
		// answers must repeat the first server's bytes.
		filled := st.filled
		if err := st.svc.stop(); err != nil {
			return nil, err
		}
		if st, err = setUpServe(ctx, cfg); err != nil {
			return nil, err
		}
		for _, r := range st.pool {
			out.attempted++
			if st.filled[r.key] != filled[r.key] {
				out.fail("hot-pool circuit %s: bytes differ between two servers", r.circuit.Name)
			}
		}
		st.filled = filled
		tr := &tracer{}
		if layerWin, err = measureServe(st, seconds, tr); err != nil {
			return nil, err
		}
		checkT += verifyServe(st, layerWin, out)
		out.setSelfTimes(layerWin.spans)
		out.layer["trace.overhead_pct"] = 100 * (throughput(w)/throughput(layerWin) - 1)
		path, err := writeSpans(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed), layerWin.spans)
		if err != nil {
			return nil, err
		}
		out.info["trace_file"] = path
	}

	q, err := poolQuality(st)
	if err != nil {
		return nil, err
	}
	q.report(out)
	out.e2e["throughput_per_s"] = throughput(w)
	out.e2e["miss_p50_ms"] = quantileOfMedians(w.missLat, 0.5)
	out.e2e["miss_p90_ms"] = quantileOfMedians(w.missLat, 0.9)
	out.e2e["hit_p50_ms"] = quantileOfMedians(w.hitLat, 0.5)
	misses := sampleCount(w.missLat)
	out.e2e["alloc_mb"] = ratio(w.mem.allocMB, float64(misses))
	out.info["miss_samples"] = misses
	out.info["miss_ms_by_circuit"] = groupMedians(w.missLat)
	out.info["coalesced_samples"] = len(w.followLat)
	out.info["coalesced_p50_ms"] = median(w.followLat)
	out.info["hit_samples"] = sampleCount(w.hitLat)
	out.info["hit_p50_ms_by_circuit"] = groupMedians(w.hitLat)
	serveLayers(layerWin, out)
	out.layer["layout.check_ms"] = ms(checkT)
	if err := st.svc.stop(); err != nil {
		return nil, err
	}
	return out, nil
}

func throughput(w *windowResult) float64 {
	return float64(len(w.replies)) / w.elapsed.Seconds()
}

// verifyServe checks every answer of a window: HTTP 200, a complete layout
// that round-trips against its circuit, hits on the hot pool, and the bytes
// of the miss that filled each key. It returns the time spent in DRC checks.
func verifyServe(st *serveSetup, w *windowResult, out *outcome) time.Duration {
	var checkT time.Duration
	for i, r := range w.replies {
		out.attempted++
		req := r.req
		sr := w.decoded[i]
		switch {
		case r.err != nil:
			out.fail("request %d: %v", r.idx, r.err)
			continue
		case r.code != http.StatusOK:
			out.fail("request %d (%s): HTTP %d: %s", r.idx, req.kind, r.code, bytes.TrimSpace(r.body))
			continue
		case sr == nil:
			out.fail("request %d: undecodable answer", r.idx)
			continue
		case sr.Status != "done" || sr.Partial:
			out.fail("request %d: status %q partial=%v: %s", r.idx, sr.Status, sr.Partial, sr.Error)
			continue
		case sr.Stats.InterruptedSolves > 0:
			out.fail("request %d: %d solves hit a wall-clock limit", r.idx, sr.Stats.InterruptedSolves)
			continue
		case req.kind == kindHit && !sr.CacheHit:
			out.fail("request %d: hot-pool circuit missed the cache", r.idx)
			continue
		}
		t0 := time.Now()
		l, err := layout.ParseLayoutString(sr.Layout, req.circuit)
		if err == nil {
			l.Check(drcOptions)
		}
		checkT += time.Since(t0)
		switch {
		case err != nil:
			out.fail("request %d: layout does not parse against its circuit: %v", r.idx, err)
			continue
		case !l.Complete():
			out.fail("request %d: incomplete layout", r.idx)
			continue
		case layout.Format(l) != sr.Layout:
			out.fail("request %d: layout does not round-trip", r.idx)
			continue
		}
		if want, ok := st.filled[req.key]; ok {
			if want != sr.Layout {
				out.fail("request %d (%s, hit=%v): bytes differ from the miss that filled the key", r.idx, req.kind, sr.CacheHit)
			}
			continue
		}
		if sr.CacheHit {
			out.fail("request %d: cache hit on a key no answer filled", r.idx)
			continue
		}
		st.filled[req.key] = sr.Layout
	}
	// Twins are in the stream so that coalesced followers are served and
	// their bytes checked above; a window in which no twin joined a solve
	// in flight checked none.
	if w.twins > 0 {
		out.attempted++
		if len(w.followLat) == 0 {
			out.fail("none of %d twin requests joined a solve in flight", w.twins)
		}
	}
	return checkT
}

// poolQuality sums the quality counts over the hot pool, the distinct
// circuits every serve-mix run serves.
func poolQuality(st *serveSetup) (quality, error) {
	var q quality
	for _, r := range st.pool {
		l, err := layout.ParseLayoutString(st.filled[r.key], r.circuit)
		if err != nil {
			return q, fmt.Errorf("hot-pool layout %s: %w", r.circuit.Name, err)
		}
		q.add(l, len(l.Check(drcOptions)))
	}
	return q, nil
}

func serveLayers(w *windowResult, out *outcome) {
	m := out.layer
	var busy time.Duration
	var nodes, refacts, solves, warmHits, warmOffered, interrupted int
	seen := map[string]bool{}
	succeeded := 0
	for i, r := range w.replies {
		sr := w.decoded[i]
		if r.err == nil && r.code == http.StatusOK {
			succeeded++
		}
		if sr == nil || sr.Stats == nil || sr.CacheHit || seen[sr.ID] {
			continue
		}
		seen[sr.ID] = true // coalesced followers share their leader's answer
		busy += time.Duration(sr.Stats.RuntimeNS)
		nodes += sr.Stats.Nodes
		interrupted += sr.Stats.InterruptedSolves
		if lp := sr.Stats.LP; lp != nil {
			refacts += lp.Refactorizations
			solves += lp.WarmHits + lp.WarmMisses + lp.ColdSolves
			warmHits += lp.WarmHits
			warmOffered += lp.WarmHits + lp.WarmMisses
		}
	}
	d := func(after, before int64) float64 { return float64(after - before) }
	pivots := d(w.after.LPPivots, w.before.LPPivots)
	m["lp.pivots"] = pivots
	m["lp.refactorizations"] = float64(refacts)
	m["lp.solves"] = float64(solves)
	m["lp.pivots_per_solve"] = ratio(pivots, float64(solves))
	m["lp.warm_hit_rate"] = ratio(float64(warmHits), float64(warmOffered))
	m["lp.us_per_pivot"] = ratio(float64(busy)/float64(time.Microsecond), pivots)
	m["milp.nodes"] = float64(nodes)
	m["milp.nodes_per_s"] = ratio(float64(nodes), busy.Seconds())
	m["pilp.interrupted_solves"] = float64(interrupted)
	m["engine.busy_s"] = busy.Seconds()
	m["engine.jobs_failed"] = d(w.after.Failed, w.before.Failed)
	m["gc.count"] = w.mem.gcCount
	m["gc.pause_ms"] = w.mem.pauseMS
	m["server.queue_wait_p50_ms"] = median(w.queueLat)
	m["server.queue_wait_p90_ms"] = quantile(w.queueLat, 0.9)
	m["server.solve_p50_ms"] = median(w.solves)
	m["server.worker_util"] = ratio(busy.Seconds(), w.elapsed.Seconds()*serveWorkers)
	m["server.rejected"] = d(w.after.Rejected, w.before.Rejected)
	m["server.coalesced"] = d(w.after.Coalesced, w.before.Coalesced)
	m["server.failed"] = d(w.after.Failed, w.before.Failed)
	m["server.cache_hits"] = d(w.after.CacheHits, w.before.CacheHits)
	m["server.cache_misses"] = d(w.after.CacheMisses, w.before.CacheMisses)
	ch, cm := d(w.after.Cache.Hits, w.before.Cache.Hits), d(w.after.Cache.Misses, w.before.Cache.Misses)
	m["cache.hit_ratio"] = ratio(ch, ch+cm)
	m["cache.evictions"] = d(w.after.Cache.Evictions, w.before.Cache.Evictions)
	m["cache.bytes"] = float64(w.after.Cache.Bytes)
	m["cache.get_us_p50"] = w.getP50
	m["cache.put_us_p50"] = w.putP50
	m["client.sent"] = float64(len(w.replies))
	m["client.succeeded"] = float64(succeeded)
	m["client.failed"] = float64(len(w.replies) - succeeded)
}
