package main

import (
	"strings"
	"testing"
)

const oldArchive = `{"circuit":"lna94","runtime_ns":1000000000,"nodes":100,"lp_pivots":4000}
{"circuit":"large","variant":"lp-warm-w1","runtime_ns":2000000000,"nodes":50,"lp_pivots":1000}
`

const newArchive = `{"circuit":"lna94","runtime_ns":900000000,"nodes":100,"lp_pivots":3000}
{"circuit":"large","variant":"lp-warm-w1","runtime_ns":1500000000,"nodes":50,"lp_pivots":800}
{"circuit":"large","variant":"lp-cold-w1","runtime_ns":2500000000,"nodes":50,"lp_pivots":2400}
`

func TestParseAccumulates(t *testing.T) {
	pts, err := parse(strings.NewReader(oldArchive + oldArchive))
	if err != nil {
		t.Fatal(err)
	}
	p := pts["lna94"]
	if p.count != 2 || p.nodes != 200 || p.pivots != 8000 {
		t.Errorf("accumulated point = %+v, want count 2, nodes 200, pivots 8000", p)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parse(strings.NewReader("{\"circuit\":\"x\"}\nnot json\n")); err == nil {
		t.Fatal("expected a parse error")
	}
}

func TestReportDeltas(t *testing.T) {
	old, err := parse(strings.NewReader(oldArchive))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(newArchive))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	report(&b, []string{"old.jsonl", "new.jsonl"}, []map[string]point{old, cur}, "")
	out := b.String()
	for _, want := range []string{
		"lna94", "large/lp-warm-w1",
		"-25.0%", // lna94 pivots 4000 -> 3000
		"-20.0%", // warm pivots 1000 -> 800
		"new",    // cold series only exists in the new archive
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportSeriesFilter(t *testing.T) {
	cur, err := parse(strings.NewReader(newArchive))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	report(&b, []string{"a"}, []map[string]point{cur}, "lp-cold")
	out := b.String()
	if strings.Contains(out, "lna94") || strings.Contains(out, "lp-warm-w1") {
		t.Errorf("filter leaked unrelated series:\n%s", out)
	}
	if !strings.Contains(out, "lp-cold-w1") {
		t.Errorf("filter dropped a matching series:\n%s", out)
	}
}

func TestDeltaEdgeCases(t *testing.T) {
	if got := delta(0, 0); got != "-" {
		t.Errorf("delta(0,0) = %q", got)
	}
	if got := delta(0, 5); got != "new" {
		t.Errorf("delta(0,5) = %q", got)
	}
	if got := delta(100, 150); got != "+50.0%" {
		t.Errorf("delta(100,150) = %q", got)
	}
}
