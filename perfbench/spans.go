package main

import (
	"sort"

	"ironman/internal/obs"
)

// rootSpan names the span the benchmark opens around each request on
// each party's lane; every other span on the lane is a layer span.
const rootSpan = "bench.request"

// spanTotals is a traced pass's per-layer breakdown: for each span name
// on the analysed lanes, the summed inclusive and self (inclusive minus
// direct children) time in milliseconds.
type spanTotals struct {
	incl, self map[string]float64
	roots      int
}

// coverage is the share of request time spent inside layer spans: the
// request spans' time minus their own self time, over their time.
func coverage(ts ...spanTotals) float64 {
	var incl, self float64
	for _, t := range ts {
		incl += t.incl[rootSpan]
		self += t.self[rootSpan]
	}
	if incl == 0 {
		return 0
	}
	return 1 - self/incl
}

// perRequest is a span's self time averaged over requests and lanes —
// the wall time one party spends in that layer per request.
func (t spanTotals) perRequest(name string) float64 {
	if t.roots == 0 {
		return 0
	}
	return t.self[name] / float64(t.roots)
}

// perRequestAll is every span's per-request self time, for the report.
func perRequestAll(t spanTotals) map[string]float64 {
	m := make(map[string]float64, len(t.self))
	for name := range t.self {
		m[name] = t.perRequest(name)
	}
	return m
}

// analyse computes self times over the given lanes (thread ids). Spans
// on one lane come from one goroutine, so they nest; worker lanes,
// whose spans shard a parent phase in parallel, are left out, and so
// is any span outside a request (setup work).
func analyse(events []obs.TraceEvent, lanes ...int) spanTotals {
	t := spanTotals{incl: map[string]float64{}, self: map[string]float64{}}
	byLane := map[int][]obs.TraceEvent{}
	for _, lane := range lanes {
		byLane[lane] = nil
	}
	for _, ev := range events {
		if _, ok := byLane[ev.Tid]; ok && ev.Ph == "X" {
			byLane[ev.Tid] = append(byLane[ev.Tid], ev)
		}
	}
	const eps = 1e-3 // µs: spans that touch are siblings, not nested
	for _, evs := range byLane {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		children := make([]float64, len(evs))
		inRequest := make([]bool, len(evs))
		var stack []int
		for i, ev := range evs {
			for len(stack) > 0 {
				top := evs[stack[len(stack)-1]]
				if top.Ts+top.Dur > ev.Ts+eps {
					break
				}
				stack = stack[:len(stack)-1]
			}
			inRequest[i] = ev.Name == rootSpan
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				children[parent] += ev.Dur
				inRequest[i] = inRequest[i] || inRequest[parent]
			}
			stack = append(stack, i)
		}
		for i, ev := range evs {
			if !inRequest[i] {
				continue
			}
			t.incl[ev.Name] += ev.Dur / 1e3
			t.self[ev.Name] += (ev.Dur - children[i]) / 1e3
			if ev.Name == rootSpan {
				t.roots++
			}
		}
	}
	return t
}
