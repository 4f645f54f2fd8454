package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// span is one closed span of a Chrome trace, with its self time: its
// duration minus the part covered by its child spans on the same track.
type span struct {
	name       string
	track      int
	start, end float64 // µs since the tracer's origin
	self       float64 // µs
	// attrs holds the numeric arguments of the opening and closing events
	// (the closing event wins on a shared key).
	attrs map[string]float64
}

func (s span) dur() float64 { return s.end - s.start }

// profile is a parsed trace: every span in start order, and the last
// sample of every counter series per track.
type profile struct {
	spans []span
	// counters maps track → counter name → series → last sampled value.
	counters map[int]map[string]map[string]float64
}

// parseTrace reads Chrome trace-event JSON as partition.Tracer.Export
// writes it. Spans still open at the end of a track (Export closes spans
// an aborted run left open, but a truncated file may not) end at the
// track's last timestamp.
func parseTrace(data []byte) (*profile, error) {
	var raw struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	type open struct {
		span
		children float64
	}
	stacks := make(map[int][]*open)
	last := make(map[int]float64)
	p := &profile{counters: make(map[int]map[string]map[string]float64)}
	closeTop := func(tid int, ts float64, args map[string]any) {
		st := stacks[tid]
		o := st[len(st)-1]
		stacks[tid] = st[:len(st)-1]
		o.end = ts
		o.self = o.dur() - o.children
		addNumeric(o.attrs, args)
		if len(st) > 1 {
			st[len(st)-2].children += o.dur()
		}
		p.spans = append(p.spans, o.span)
	}
	for _, e := range raw.TraceEvents {
		if e.Ph != "M" && e.Ts > last[e.Tid] {
			last[e.Tid] = e.Ts
		}
		switch e.Ph {
		case "B":
			o := &open{span: span{name: e.Name, track: e.Tid, start: e.Ts, attrs: make(map[string]float64)}}
			addNumeric(o.attrs, e.Args)
			stacks[e.Tid] = append(stacks[e.Tid], o)
		case "E":
			if len(stacks[e.Tid]) == 0 {
				return nil, fmt.Errorf("parse trace: end of %q without an open span on track %d", e.Name, e.Tid)
			}
			closeTop(e.Tid, e.Ts, e.Args)
		case "C":
			byName := p.counters[e.Tid]
			if byName == nil {
				byName = make(map[string]map[string]float64)
				p.counters[e.Tid] = byName
			}
			series := make(map[string]float64)
			addNumeric(series, e.Args)
			byName[e.Name] = series
		}
	}
	for tid, st := range stacks {
		for range st {
			closeTop(tid, last[tid], nil)
		}
	}
	sort.SliceStable(p.spans, func(i, j int) bool { return p.spans[i].start < p.spans[j].start })
	return p, nil
}

func addNumeric(dst map[string]float64, args map[string]any) {
	for k, v := range args {
		if f, ok := v.(float64); ok {
			dst[k] = f
		}
	}
}

// without returns the profile minus one track.
func (p *profile) without(track int) *profile {
	q := &profile{counters: make(map[int]map[string]map[string]float64)}
	for _, s := range p.spans {
		if s.track != track {
			q.spans = append(q.spans, s)
		}
	}
	for tid, c := range p.counters {
		if tid != track {
			q.counters[tid] = c
		}
	}
	return q
}

// perTrack sums f over the spans named name, per track.
func (p *profile) perTrack(name string, f func(span) float64) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range p.spans {
		if s.name == name {
			out[s.track] += f(s)
		}
	}
	return out
}

// selfS is the self time of the spans named name in seconds: summed per
// track, then the maximum over tracks — the slowest rank of a parallel
// run, the only track of a serial one.
func (p *profile) selfS(name string) float64 {
	return maxOf(p.perTrack(name, func(s span) float64 { return s.self })) / 1e6
}

// calls is the number of spans named name on the busiest track.
func (p *profile) calls(name string) float64 {
	return maxOf(p.perTrack(name, func(span) float64 { return 1 }))
}

// attrMax is an attribute summed over the spans named name per track,
// maximised over tracks: right for values every rank reports globally.
func (p *profile) attrMax(name, key string) float64 {
	return maxOf(p.perTrack(name, func(s span) float64 { return s.attrs[key] }))
}

// attrSum is an attribute summed over every span named name on every
// track: right for rank-local counts.
func (p *profile) attrSum(name, key string) float64 {
	return sumOf(p.perTrack(name, func(s span) float64 { return s.attrs[key] }))
}

// attrLast is the attribute of the last span named name to start, or 0
// when there is none.
func (p *profile) attrLast(name, key string) float64 {
	v := 0.0
	for _, s := range p.spans {
		if s.name == name {
			v = s.attrs[key]
		}
	}
	return v
}

// counterSum adds up, over tracks and over every counter whose name has
// the prefix, the last sample of one series. Counters are cumulative, so
// the last sample is the track's total.
func (p *profile) counterSum(prefix, series string) float64 {
	t := 0.0
	for _, byName := range p.counters {
		for name, s := range byName {
			if strings.HasPrefix(name, prefix) {
				t += s[series]
			}
		}
	}
	return t
}

func maxOf(m map[int]float64) float64 {
	best := 0.0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

func sumOf(m map[int]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
