package main

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	partition "repro"
)

func mustParse(t *testing.T, data string) *profile {
	t.Helper()
	p, err := parseTrace([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// selfSum is the total self time of all spans on one track in seconds.
func (p *profile) selfSum(track int) float64 {
	t := 0.0
	for _, s := range p.spans {
		if s.track == track {
			t += s.self
		}
	}
	return t / 1e6
}

func TestSelfTimeNestedSpans(t *testing.T) {
	// outer [0,100] holds mid [10,40] (which holds leaf [20,30]) and a
	// second mid [50,70]; times in µs.
	p := mustParse(t, `{"traceEvents":[
		{"name":"outer","ph":"B","ts":0,"tid":0},
		{"name":"mid","ph":"B","ts":10,"tid":0},
		{"name":"leaf","ph":"B","ts":20,"tid":0},
		{"name":"leaf","ph":"E","ts":30,"tid":0},
		{"name":"mid","ph":"E","ts":40,"tid":0},
		{"name":"mid","ph":"B","ts":50,"tid":0},
		{"name":"mid","ph":"E","ts":70,"tid":0},
		{"name":"outer","ph":"E","ts":100,"tid":0}]}`)
	for name, want := range map[string]float64{"outer": 50, "mid": 40, "leaf": 10} {
		if got := p.selfS(name) * 1e6; !near(got, want) {
			t.Errorf("self(%s) = %v µs, want %v", name, got, want)
		}
	}
	if got := p.calls("mid"); got != 2 {
		t.Errorf("calls(mid) = %v, want 2", got)
	}
	if got := p.selfSum(0) * 1e6; !near(got, 100) {
		t.Errorf("self times sum to %v µs, want the outer span's 100", got)
	}
}

func TestSelfTimeMaxOverRanks(t *testing.T) {
	// Rank 1 spends longer in "work" than rank 0; rank-local counts add
	// up, global counts (the same on every rank) do not.
	p := mustParse(t, `{"traceEvents":[
		{"name":"work","ph":"B","ts":0,"tid":0,"args":{"boundary_n":3}},
		{"name":"work","ph":"E","ts":10,"tid":0,"args":{"moves":7}},
		{"name":"work","ph":"B","ts":0,"tid":1,"args":{"boundary_n":4}},
		{"name":"work","ph":"E","ts":25,"tid":1,"args":{"moves":7}},
		{"name":"work","ph":"B","ts":30,"tid":1,"args":{"boundary_n":1}},
		{"name":"work","ph":"E","ts":35,"tid":1,"args":{"moves":2}}]}`)
	if got := p.selfS("work") * 1e6; !near(got, 30) {
		t.Errorf("self(work) = %v µs, want rank 1's 30", got)
	}
	if got := p.calls("work"); got != 2 {
		t.Errorf("calls(work) = %v, want rank 1's 2", got)
	}
	if got := p.attrSum("work", "boundary_n"); got != 8 {
		t.Errorf("attrSum(boundary_n) = %v, want 8", got)
	}
	if got := p.attrMax("work", "moves"); got != 9 {
		t.Errorf("attrMax(moves) = %v, want rank 1's 9", got)
	}
	if got := p.attrLast("work", "moves"); got != 2 {
		t.Errorf("attrLast(moves) = %v, want 2", got)
	}
}

func TestSpanAttributesMergeBothEnds(t *testing.T) {
	p := mustParse(t, `{"traceEvents":[
		{"name":"s","ph":"B","ts":0,"tid":0,"args":{"n":5,"cut":1,"dir":"x"}},
		{"name":"s","ph":"E","ts":1,"tid":0,"args":{"cut":9}}]}`)
	a := p.spans[0].attrs
	if a["n"] != 5 || a["cut"] != 9 {
		t.Errorf("attrs = %v, want n from the opening event and cut from the closing one", a)
	}
	if _, ok := a["dir"]; ok {
		t.Errorf("string attribute kept: %v", a)
	}
}

func TestSpansClosedAtEndOfTrack(t *testing.T) {
	// A span Export closed early: the tracer synthesizes its end at the
	// track's last timestamp.
	tr := partition.NewTracer("test")
	rk := tr.Rank(0)
	rk.Begin("outer")
	rk.Begin("done")
	time.Sleep(time.Millisecond)
	rk.End()
	rk.Begin("aborted")
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	p := mustParse(t, buf.String())
	if got := p.calls("aborted"); got != 1 {
		t.Fatalf("aborted span count = %v, want 1", got)
	}
	if p.selfS("outer") <= 0 || p.selfS("done") < 1e-3 {
		t.Errorf("self(outer) = %v, self(done) = %v", p.selfS("outer"), p.selfS("done"))
	}

	// A truncated file with no closing events at all: the parser closes
	// the spans itself at the track's last timestamp.
	p = mustParse(t, `{"traceEvents":[
		{"name":"a","ph":"B","ts":0,"tid":0},
		{"name":"b","ph":"B","ts":5,"tid":0},
		{"name":"c","ph":"C","ts":12,"tid":0,"args":{"calls":1}}]}`)
	if a, b := p.selfS("a")*1e6, p.selfS("b")*1e6; !near(a, 5) || !near(b, 7) {
		t.Errorf("self(a) = %v, self(b) = %v µs, want 5 and 7", a, b)
	}
}

func TestCountersKeepLastSample(t *testing.T) {
	p := mustParse(t, `{"traceEvents":[
		{"name":"mpi.allreduce","ph":"C","ts":1,"tid":0,"args":{"calls":1,"bytes":8,"wait_s":0.5}},
		{"name":"mpi.allreduce","ph":"C","ts":2,"tid":0,"args":{"calls":3,"bytes":24,"wait_s":1.5}},
		{"name":"mpi.bcast","ph":"C","ts":2,"tid":0,"args":{"calls":2,"bytes":4,"wait_s":0.25}},
		{"name":"mpi.allreduce","ph":"C","ts":3,"tid":1,"args":{"calls":3,"bytes":24,"wait_s":0.5}},
		{"name":"other","ph":"C","ts":3,"tid":1,"args":{"calls":100}}]}`)
	if got := p.counterSum("mpi.", "calls"); got != 8 {
		t.Errorf("mpi calls = %v, want 3+2+3", got)
	}
	if got := p.counterSum("mpi.", "bytes"); got != 52 {
		t.Errorf("mpi bytes = %v, want 24+4+24", got)
	}
	// Busy = sim time - wait: rank 0 waited 1.75 s, rank 1 0.5 s of 3 s.
	if got, want := rankSkew(p, 3), 2.5/((1.25+2.5)/2); !near(got, want) {
		t.Errorf("rank skew = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailLeavesAQuarterButAtMostTenAbove(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(999 - i)
	}
	for _, c := range []struct{ n, want int }{
		{1000, 989}, // ten above
		{40, 29},    // ten above
		{39, 29},    // nine above
		{12, 8},     // three above
		{3, 2},      // the maximum
		{1, 0},
	} {
		if got := tail(xs[1000-c.n:]); got != float64(c.want) {
			t.Errorf("tail of 0..%d = %v, want %d", c.n-1, got, c.want)
		}
	}
}

// TestTracedMatchesUntraced: the traced call must return the untraced
// labels, serial and parallel, and on the serial track the self times
// must account for the traced call's wall time.
func TestTracedMatchesUntraced(t *testing.T) {
	g, _ := meshType1("mrng2t", 3).build(1)
	opt := partition.SerialOptions{Seed: 1, Tol: tol}
	want, _, err := partition.Serial(g, 16, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr := partition.NewTracer("test")
	t0 := time.Now()
	got, _, err := partition.SerialTraced(context.Background(), g, 16, opt, tr)
	wall := time.Since(t0).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	if hashLabels(got) != hashLabels(want) {
		t.Fatal("traced serial labels differ from untraced")
	}
	p, err := exportProfile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if self := p.selfSum(0); self > wall || self < 0.95*wall {
		t.Errorf("serial self times sum to %.4fs of a %.4fs call, want within 5%%", self, wall)
	}

	popt := partition.ParallelOptions{Seed: 1, Tol: tol}
	want, _, err = partition.Parallel(g, 16, 4, popt)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = partition.ParallelTraced(context.Background(), g, 16, 4, popt, partition.NewTracer("test"))
	if err != nil {
		t.Fatal(err)
	}
	if hashLabels(got) != hashLabels(want) {
		t.Fatal("traced parallel labels differ from untraced")
	}
}
