package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Span kinds. Each marks one layer boundary the benchmark's own code
// wraps: the load generator's request (or pipelined batch), the front
// server's handler, (*proxyaff.Proxy).Serve and a proxied backend's
// handler.
const (
	kindClient = iota
	kindHandler
	kindProxyServe
	kindBackend
	numKinds
)

var kindNames = [numKinds]string{"client", "httpaff.handler", "proxyaff.serve", "backend.handler"}

// span is one timed interval. Every span of one client request (or
// batch) shares Trace; ID is unique within the trace and Parent names
// the span that caused it (0 for the root). Times are Unix nanoseconds,
// so spans recorded in the load generator and in the server process
// share one clock.
type span struct {
	Kind       uint8
	Trace      uint64
	ID, Parent uint32
	Start, End int64
}

// Span IDs within a trace. The client's request or batch is the root;
// the k-th request it carries is served by the front span frontID(k),
// and a proxied request's backend span is backendID(k). The trace
// header carries the trace and k, so each process derives the IDs
// without coordination.
const rootID = 1

func frontID(k int) uint32   { return 2 + uint32(k) }
func backendID(k int) uint32 { return 1<<16 + uint32(k) }

// traceHeader is the request header that carries "<trace>.<k>" from the
// load generator to the server's handlers; the proxy forwards it to the
// backend unchanged.
const traceHeader = "x-bench-trace"

// parseTraceHeader parses a traceHeader value.
func parseTraceHeader(v []byte) (trace uint64, k int, ok bool) {
	for i, c := range v {
		if c != '.' {
			continue
		}
		t, err1 := strconv.ParseUint(string(v[:i]), 10, 64)
		n, err2 := strconv.Atoi(string(v[i+1:]))
		return t, n, err1 == nil && err2 == nil && n >= 0 && n < 1<<15
	}
	return 0, 0, false
}

// spanBuf keeps spans in memory up to a fixed capacity, counting the
// ones it has no room for, so recording never allocates during a run.
type spanBuf struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, s)
	} else {
		b.dropped++
	}
	b.mu.Unlock()
}

// writeSpans writes spans one per line as "kind trace id parent start
// end", closed by an "end" line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, "%d %d %d %d %d %d\n", s.Kind, s.Trace, s.ID, s.Parent, s.Start, s.End)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// readSpans reads what writeSpans wrote, up to its "end" line.
func readSpans(next func() (string, error)) ([]span, error) {
	var out []span
	for {
		line, err := next()
		if err != nil {
			return nil, err
		}
		if line == "end" {
			return out, nil
		}
		var s span
		if _, err := fmt.Sscan(line, &s.Kind, &s.Trace, &s.ID, &s.Parent, &s.Start, &s.End); err != nil {
			return nil, fmt.Errorf("span line %q: %w", line, err)
		}
		out = append(out, s)
	}
}

// selfTimes returns each span's self time, in the order of spans: its
// duration minus the part of its interval covered by its children's
// intervals, overlapping children counted once and the parts of a child
// outside its parent ignored.
func selfTimes(spans []span) []int64 {
	type key struct {
		trace uint64
		id    uint32
	}
	children := make(map[key][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[key{s.Trace, s.ID}] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		out[i] = (s.End - s.Start) - covered(iv)
	}
	return out
}

// covered returns the total length of the union of intervals; it
// reorders iv.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// spanStats groups durations and self times by kind.
type spanStats struct {
	dur, self [numKinds][]int64
}

func newSpanStats(spans []span) spanStats {
	var st spanStats
	self := selfTimes(spans)
	for i, s := range spans {
		if int(s.Kind) >= numKinds {
			continue
		}
		st.dur[s.Kind] = append(st.dur[s.Kind], s.End-s.Start)
		st.self[s.Kind] = append(st.self[s.Kind], self[i])
	}
	return st
}
