package main

import (
	"math/rand"
	"strconv"
	"time"
)

// numPaths is how many distinct resources each HTTP workload requests;
// each has its own seeded body, so a misrouted response fails the byte
// check.
const numPaths = 8

// spec describes one workload. Every HTTP workload is closed-loop: each
// of its callers waits for a reply before sending again.
type spec struct {
	name string
	// callers is how many closed-loop callers run at once (each holds at
	// most one connection).
	callers int
	// traceEvery: in a traced segment, one unit in traceEvery carries
	// the trace header and gets spans.
	traceEvery uint64
	// pinned: keep-alive connections pinned one per worker by their
	// seeded flow group, with migration off so the placement holds.
	pinned  bool
	proxied bool
	// bodySize draws one resource's body size from the seeded stream.
	bodySize func(*rand.Rand) int
	// drive runs one caller until the window ends.
	drive func(*httpRun, *caller)
}

// Workload parameters.
const (
	pipelineDepth = 16 // requests per pipelined batch
	churnRequests = 6  // requests per connection on http-churn, as in the paper
	churnHot      = 16 // seeded groups owned by worker 0 at start...
	churnCold     = 8  // ...and by worker 1: two thirds of connections start on worker 0
)

var workloads = []spec{
	{
		// Per-request parse, dispatch and flush in httpaff set the rate:
		// no accept, stealing, migration or upstream, and one park/wake
		// per 16 requests. The smallest message size.
		name:       "http-pipelined",
		callers:    2,
		traceEvery: 32,
		pinned:     true,
		bodySize:   func(*rand.Rand) int { return 64 },
		drive:      drivePipelined,
	},
	{
		// The paper's shape (6 requests per connection): serve's accept
		// loops, core's flow-table routing and the accept queues carry the
		// load; parsing is amortized.
		name:       "http-churn",
		callers:    2,
		traceEvery: 4,
		bodySize:   func(r *rand.Rand) int { return 650 + r.Intn(101) },
		drive:      driveChurn,
	},
	{
		// Depth 1, as ordinary clients send: every request pays an
		// upstream pool checkout, an upstream exchange, relay copies and
		// park/wake at both hops.
		name:       "proxy-keepalive",
		callers:    2,
		traceEvery: 2,
		pinned:     true,
		proxied:    true,
		bodySize:   func(*rand.Rand) int { return 4096 },
		drive:      driveProxy,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func pathOf(i int) string { return "/o/" + strconv.Itoa(i) }

// makeBodies derives the workload's response bodies from the seed; the
// server process and the load generator call it with the same
// arguments, so the generator knows every byte to expect.
func makeBodies(w spec, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, numPaths)
	for i := range out {
		b := make([]byte, w.bodySize(rng))
		for j := range b {
			b[j] = 'a' + byte(rng.Intn(26))
		}
		out[i] = b
	}
	return out
}

// callerRNG is caller i's seeded stream of paths and flow groups.
func callerRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
}

// churnGroups draws http-churn's skewed flow-group set from the seed:
// churnHot groups worker 0 owns at start and churnCold that worker 1
// owns, so a uniform pick among them lands on worker 0 two times in
// three.
func churnGroups(seed int64, groups int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x63687572))
	var out []int
	seen := map[int]bool{}
	for _, n := range []struct{ worker, count int }{{0, churnHot}, {1, churnCold}} {
		for c := 0; c < n.count; {
			g := ownedGroup(rng, n.worker, groups, serverWorkers)
			if !seen[g] {
				seen[g] = true
				out = append(out, g)
				c++
			}
		}
	}
	return out
}

// drivePipelined keeps one pinned keep-alive connection busy with
// batches of pipelineDepth GETs; latency is per batch.
func drivePipelined(r *httpRun, c *caller) {
	var cc *clientConn
	defer func() {
		if cc != nil {
			cc.abort()
		}
	}()
	idx := make([]int, pipelineDepth)
	for r.running() {
		if cc == nil {
			if cc = r.dialPinned(c); cc == nil {
				c.fail(0, pipelineDepth)
				time.Sleep(time.Millisecond)
				continue
			}
		}
		mode, trace := r.unit(c)
		for k := range idx {
			idx[k] = c.rng.Intn(numPaths)
			cc.appendRequest(pathOf(idx[k]), trace, k, false)
		}
		t0 := time.Now()
		err := cc.flush()
		done := 0
		for ; err == nil && done < pipelineDepth; done++ {
			err = cc.readResponse(r.bodies[idx[done]])
		}
		t1 := time.Now()
		if err != nil {
			c.fail(mode, pipelineDepth-done)
			c.note(err)
			c.done(mode, done)
			cc.abort()
			cc = nil
			continue
		}
		c.done(mode, pipelineDepth)
		c.record(mode, t1.Sub(t0), t1)
		c.span(trace, t0, t1)
	}
}

// driveProxy sends one request at a time on a pinned keep-alive
// connection through the proxy.
func driveProxy(r *httpRun, c *caller) {
	var cc *clientConn
	defer func() {
		if cc != nil {
			cc.abort()
		}
	}()
	for r.running() {
		if cc == nil {
			if cc = r.dialPinned(c); cc == nil {
				c.fail(0, 1)
				time.Sleep(time.Millisecond)
				continue
			}
		}
		mode, trace := r.unit(c)
		i := c.rng.Intn(numPaths)
		cc.appendRequest(pathOf(i), trace, 0, false)
		t0 := time.Now()
		err := cc.flush()
		if err == nil {
			err = cc.readResponse(r.bodies[i])
		}
		t1 := time.Now()
		if err != nil {
			c.fail(mode, 1)
			c.note(err)
			cc.abort()
			cc = nil
			continue
		}
		c.done(mode, 1)
		c.record(mode, t1.Sub(t0), t1)
		c.span(trace, t0, t1)
	}
}

// driveChurn opens a connection from a seeded skewed flow group, sends
// churnRequests sequential GETs with Connection: close on the last, and
// waits for the server to close before opening the next. Latency is per
// request; a traced connection's root span covers dial to close.
func driveChurn(r *httpRun, c *caller) {
	groups := churnGroups(r.seed, r.groups)
	var spare *clientConn
	for r.running() {
		g := groups[c.rng.Intn(len(groups))]
		mode, trace := r.unit(c)
		t0 := time.Now()
		cc, err := dialGroup(r.target, g, r.groups, r.hard, spare)
		if err != nil {
			c.fail(mode, churnRequests)
			c.note(err)
			time.Sleep(time.Millisecond)
			continue
		}
		done := 0
		for ; done < churnRequests; done++ {
			i := c.rng.Intn(numPaths)
			last := done == churnRequests-1
			cc.appendRequest(pathOf(i), trace, done, last)
			s := time.Now()
			if err = cc.flush(); err == nil {
				err = cc.readResponse(r.bodies[i])
			}
			d := time.Since(s)
			if err == nil && last {
				err = cc.expectClose()
			}
			if err != nil {
				break
			}
			c.record(mode, d, s.Add(d))
		}
		cc.close()
		spare = cc
		c.done(mode, done)
		if err != nil {
			c.fail(mode, churnRequests-done)
			c.note(err)
			continue
		}
		c.span(trace, t0, time.Now())
	}
}
