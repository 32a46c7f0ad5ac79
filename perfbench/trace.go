package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one flow or one
// request share Trace; Parent is the ID of the span that caused this one
// (zero for a root). Key is the cache content address a serving span
// belongs to, used to attach cache spans to their request.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Key    string    `json:"key,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory; a nil *tracer records nothing, so untraced
// runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID (zero when tracing is off).
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span that end closes, for parents whose children are
// recorded before the parent finishes.
func (t *tracer) begin(parent int, trace, name string) int {
	return t.add(span{Parent: parent, Trace: trace, Name: name, Start: time.Now()})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Now()
}

// setParent re-parents a span after the fact (serve-mix cache spans are
// attached to their request once the request's derived spans exist).
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanNames lists every span the benchmark records, in report order; each
// becomes a self-time metric, zero on workloads that never cross it.
var spanNames = []string{
	"bench.pass", "engine.job", "pilp.phase1", "pilp.phase2", "pilp.phase3",
	"layout.check", "layout.reserve",
	"client.request", "server.queue", "server.solve", "cache.get", "cache.put",
}

// selfTimes returns, per span name, the summed self time in milliseconds: each
// span's duration minus the part of it covered by the union of its children.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := coveredWithin(s, children[s.ID])
		out[s.Name] += ms(s.End.Sub(s.Start) - covered)
	}
	return out
}

// coveredWithin is the length of the union of the children's intervals,
// clipped to the parent's interval.
func coveredWithin(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans writes the spans as JSON lines under dir and returns the path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing trace file: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing trace file: %w", err)
	}
	return path, nil
}
