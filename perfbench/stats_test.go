package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"affinityaccept/internal/core"
	"affinityaccept/internal/loadgen"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.5, 50}, // rank ceil(5) = 5
		{0.51, 60},
		{0.9, 90},
		{0.99, 100}, // rank ceil(9.9) = 10
		{1, 100},
		{0.01, 10},
	}
	for _, c := range cases {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %d, want 7", got)
	}
}

func TestBeyondAndP99Support(t *testing.T) {
	cases := []struct {
		n, beyond int
		ok        bool
	}{
		{100, 1, false},
		{999, 9, false}, // rank ceil(989.01) = 990
		{1000, 10, true},
		{2500, 25, true},
		{0, 0, false},
	}
	for _, c := range cases {
		if got := beyond(c.n, 0.99); got != c.beyond {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", c.n, got, c.beyond)
		}
		samples := make([]int64, c.n)
		for i := range samples {
			samples[i] = int64(c.n - i) // reversed: summarize must sort
		}
		s := summarize(samples)
		if s.P99OK != c.ok {
			t.Errorf("n=%d: P99OK = %v, want %v", c.n, s.P99OK, c.ok)
		}
		if c.n > 0 && (s.P50 != int64((c.n+1)/2) || s.N != c.n) {
			t.Errorf("n=%d: P50 = %d N = %d, want %d and %d", c.n, s.P50, s.N, (c.n+1)/2, c.n)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	if got := (ratio{3, 4}).Value(); got != 0.75 {
		t.Errorf("3/4 = %v", got)
	}
	if got := (ratio{5, 0}).Value(); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
	var res result
	res.addRatio("serve.local_ratio", ratio{90, 120}, "passes")
	m := res.metrics[0]
	if m.value != 0.75 || m.unit != "ratio" || m.note != "90 / 120 passes" {
		t.Errorf("addRatio = %+v, want 0.75 with its base 90 / 120 passes", m)
	}
}

// span builds a test span.
func sp(kind uint8, trace uint64, id, parent uint32, start, end int64) span {
	return span{Kind: kind, Trace: trace, ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Trace 1: a pipelined batch of 3 with two overlapping children
		// and one running past the root's end.
		sp(kindClient, 1, rootID, 0, 0, 100),
		sp(kindHandler, 1, frontID(0), rootID, 10, 30),
		sp(kindHandler, 1, frontID(1), rootID, 20, 40),  // overlaps the first by 10
		sp(kindHandler, 1, frontID(2), rootID, 90, 120), // only 10 inside the root
		// Trace 2: client -> proxy -> backend.
		sp(kindClient, 2, rootID, 0, 1000, 1100),
		sp(kindProxyServe, 2, frontID(0), rootID, 1010, 1090),
		sp(kindBackend, 2, backendID(0), frontID(0), 1030, 1050),
		// Trace 3: a root with no children, and a child of another
		// trace's ID that must not count.
		sp(kindClient, 3, rootID, 0, 0, 50),
		sp(kindHandler, 4, frontID(0), rootID, 0, 50),
	}
	want := []int64{
		100 - 30 - 10, // children cover [10,40] and [90,100]
		20, 20, 30,
		100 - 80,
		80 - 20,
		20,
		50,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%+v): self %d, want %d", i, spans[i], got[i], want[i])
		}
	}
	st := newSpanStats(spans)
	if len(st.dur[kindHandler]) != 4 || len(st.self[kindClient]) != 3 {
		t.Errorf("grouped by kind: %d handler durations, %d client self times", len(st.dur[kindHandler]), len(st.self[kindClient]))
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {2, 4}, {8, 12}, {20, 21}}
	if got := covered(iv); got != 4+7+1 {
		t.Errorf("covered = %d, want 12", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	cc := &clientConn{}
	cc.appendRequest("/o/3", 1<<40|77, 5, true)
	want := "GET /o/3 HTTP/1.1\r\nHost: bench\r\n" + traceHeader + ": 1099511627853.5\r\nConnection: close\r\n\r\n"
	if string(cc.req) != want {
		t.Fatalf("request = %q, want %q", cc.req, want)
	}
	trace, k, ok := parseTraceHeader([]byte("1099511627853.5"))
	if !ok || trace != 1<<40|77 || k != 5 {
		t.Errorf("parse = %d %d %v", trace, k, ok)
	}
	for _, bad := range []string{"", "12", "x.1", "1.-1", "1.99999"} {
		if _, _, ok := parseTraceHeader([]byte(bad)); ok {
			t.Errorf("parseTraceHeader(%q) accepted", bad)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and the
// benchmark's declaration in one agreement.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the catalog %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), catalog %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestChurnGroupsSkew(t *testing.T) {
	g := churnGroups(42, 4096)
	if len(g) != churnHot+churnCold {
		t.Fatalf("%d groups", len(g))
	}
	on0 := 0
	seen := map[int]bool{}
	for _, x := range g {
		if seen[x] {
			t.Errorf("group %d drawn twice", x)
		}
		seen[x] = true
		if core.InitialOwner(x, serverWorkers) == 0 {
			on0++
		}
	}
	if on0 != churnHot {
		t.Errorf("%d of %d groups start on worker 0, want %d", on0, len(g), churnHot)
	}
	if again := churnGroups(42, 4096); len(again) != len(g) || again[0] != g[0] || again[len(g)-1] != g[len(g)-1] {
		t.Error("the same seed drew different groups")
	}
}

func TestTickP99(t *testing.T) {
	seq := func(from, n int, v int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(from+i) + v
		}
		return out
	}
	flat := func(n int, v int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	// Tick 0 holds 1..1000 split over the callers (p99 990), tick 1 only
	// 999 samples (no supported p99), tick 2 1000 samples of 5000 and
	// 1..1000 (p99 5000).
	a := &caller{tickStart: []int{0, 600, 1100}}
	a.lat[0] = append(append(seq(1, 600, 0), flat(500, 7)...), flat(1000, 5000)...)
	b := &caller{tickStart: []int{0, 400, 899}}
	b.lat[0] = append(append(seq(601, 400, 0), flat(499, 7)...), seq(1, 1000, 0)...)
	callers := []*caller{a, b}
	if p99, n := tickP99(callers, 3); p99 != (990+5000)/2.0 || n != 2 {
		t.Errorf("tickP99 over 3 ticks = %v from %d ticks, want 2995 from 2", p99, n)
	}
	if p99, n := tickP99(callers, 1); p99 != 990 || n != 1 {
		t.Errorf("tickP99 over 1 tick = %v from %d ticks, want 990 from 1", p99, n)
	}
	// A caller that started late has no entry for the first ticks.
	late := &caller{}
	if p99, n := tickP99([]*caller{late}, 2); p99 != 0 || n != 0 {
		t.Errorf("tickP99 without samples = %v from %d ticks", p99, n)
	}
}

func TestRecordMarksTicks(t *testing.T) {
	start := time.Unix(100, 0)
	c := &caller{start: start}
	c.record(0, 5, start.Add(300*time.Millisecond))
	c.record(0, 6, start.Add(2500*time.Millisecond)) // skips second 1
	c.record(0, 7, start.Add(2600*time.Millisecond))
	if want := []int{0, 1, 1}; !slices.Equal(c.tickStart, want) {
		t.Errorf("tickStart = %v, want %v", c.tickStart, want)
	}
}

func TestTickMedians(t *testing.T) {
	ticks := []tick{
		{10, ratio{20, 10}},
		{30, ratio{0, 0}}, // a stalled second: no CPU per request
		{20, ratio{60, 20}},
	}
	rate, cpu := tickMedians(ticks)
	if rate != 20 || cpu != 2.5 {
		t.Errorf("tickMedians = %v, %v; want 20, 2.5", rate, cpu)
	}
}

func TestRenderCatalog(t *testing.T) {
	var res result
	res.attempted = 3
	res.add("throughput_rps", 10, "1/s", "")
	if _, err := res.render("w", endToEnd, false); err == nil {
		t.Error("a run missing end-to-end metrics rendered")
	}
	line, err := res.render("w", perLayer[:1], true)
	if err == nil {
		t.Errorf("a metric outside the catalog rendered: %s", line)
	}
	var layers result
	layers.attempted = 1
	layers.add("serve.served", 5, "count", "")
	line, err = layers.render("w", perLayer, true)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || len(out.Metrics) != len(perLayer) || out.Metrics["serve.served"].Value != 5 || out.Metrics["sim.run_s"].Unit != "s" {
		t.Errorf("rendered %s", line)
	}
}

func TestReadResponseChecks(t *testing.T) {
	want := []byte("abcdef")
	cases := []struct {
		name, resp string
		ok         bool
	}{
		{"correct", "HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nabcdef", true},
		{"status", "HTTP/1.1 404 Not Found\r\nContent-Length: 6\r\n\r\nabcdef", false},
		{"length", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabcde", false},
		{"no length", "HTTP/1.1 200 OK\r\n\r\nabcdef", false},
		{"one wrong byte", "HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nabcdeF", false},
	}
	for _, c := range cases {
		cc := &clientConn{br: bufio.NewReader(strings.NewReader(c.resp))}
		err := cc.readResponse(want)
		if c.ok && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, errWrongResponse) {
			t.Errorf("%s: err = %v, want a wrong-response failure", c.name, err)
		}
	}
}

// TestHardDeadlineEndsStuckRequest: a server that accepts and never
// answers fails the request at the run's hard deadline.
func TestHardDeadlineEndsStuckRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener:", err)
	}
	served := make(chan struct{})
	defer func() {
		ln.Close()
		<-served
	}()
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err == nil {
			io.Copy(io.Discard, c) // until the client resets
			c.Close()
		}
	}()
	const groups = 4096
	cc, err := dialGroup(ln.Addr().String(), 7, groups, time.Now().Add(200*time.Millisecond), nil)
	if err != nil {
		t.Skip("no seeded source port free:", err)
	}
	defer cc.abort()
	if cc.port%groups != (loadgen.PortBase(groups)+7)%groups {
		t.Errorf("source port %d is not in group 7", cc.port)
	}
	cc.appendRequest(pathOf(0), 0, 0, false)
	if err := cc.flush(); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	err = cc.readResponse([]byte("x"))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("the stuck request took %v to fail", d)
	}
}
