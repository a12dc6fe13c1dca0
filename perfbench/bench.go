package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"affinityaccept/internal/core"
	"affinityaccept/internal/loadgen"
	"affinityaccept/internal/obs"
)

const (
	// setupReps is how many times a run sets up its server; setup_s is
	// their median.
	setupReps = 15
	// traceSegments: a traced run alternates this many equal segments,
	// untraced first, so tracing overhead is measured side by side.
	traceSegments = 10
	// hardGrace is how long past the window a request may still finish
	// before the hard deadline fails it.
	hardGrace = 20 * time.Second
	// clientSpanCap bounds each caller's span buffer.
	clientSpanCap = 1 << 16
)

// placement is one seeded connection: its source port, the flow group
// that port hashes into, and the worker that owned the group at start.
type placement struct {
	port, group, worker int
}

// caller is one closed-loop caller's private state; the window's
// goroutine for it is its only writer. Counts are split by mode: 0
// untraced, 1 traced segment.
type caller struct {
	id     int
	rng    *rand.Rand
	seq    uint64
	lat    [2][]int64 // ns per request (per batch on http-pipelined)
	ok     [2]int64   // completed requests
	failed [2]int64
	err    error
	spans  []span
	placed []placement
	// tickStart[t] is where second t of the window starts in lat[0].
	start     time.Time
	tickStart []int
	// work counts completed requests for the once-a-second sampler.
	work atomic.Int64
}

// record keeps one latency sample that ended at now.
func (c *caller) record(mode int, d time.Duration, now time.Time) {
	for t := int(now.Sub(c.start) / time.Second); len(c.tickStart) <= t; {
		c.tickStart = append(c.tickStart, len(c.lat[0]))
	}
	c.lat[mode] = append(c.lat[mode], int64(d))
}

// tickP99 returns the median, over the first n one-second ticks that
// hold at least 100*minBeyond samples, of each tick's p99, and how many
// ticks qualified. A tail estimate per second is not moved by a few
// seconds of host stall the way the whole window's p99 is.
func tickP99(callers []*caller, n int) (p99 float64, ticks int) {
	var p99s []float64
	for t := 0; t < n; t++ {
		var s []int64
		for _, c := range callers {
			if t >= len(c.tickStart) {
				continue
			}
			end := len(c.lat[0])
			if t+1 < len(c.tickStart) {
				end = c.tickStart[t+1]
			}
			s = append(s, c.lat[0][c.tickStart[t]:end]...)
		}
		if sum := summarize(s); sum.P99OK {
			p99s = append(p99s, float64(sum.P99))
		}
	}
	return median(p99s), len(p99s)
}

func (c *caller) fail(mode, n int) { c.failed[mode] += int64(n) }

// done counts n completed requests.
func (c *caller) done(mode, n int) {
	c.ok[mode] += int64(n)
	c.work.Add(int64(n))
}

func (c *caller) note(err error) {
	if c.err == nil {
		c.err = err
	}
}

// span records the caller's root span for a traced unit.
func (c *caller) span(trace uint64, t0, t1 time.Time) {
	if trace != 0 && len(c.spans) < cap(c.spans) {
		c.spans = append(c.spans, span{Kind: kindClient, Trace: trace, ID: rootID, Start: t0.UnixNano(), End: t1.UnixNano()})
	}
}

// tick is one second of an untraced window: the requests completed per
// second and the measured process's CPU per request.
type tick struct {
	rate float64
	cpu  ratio // us / requests
}

// window is one measured interval: callers start units until end;
// tracing is true during traced segments.
type window struct {
	end     time.Time
	tracing atomic.Bool
}

func (w *window) running() bool { return time.Now().Before(w.end) }

// run starts one goroutine per caller and waits for every caller to
// finish its last unit. An untraced window is cut into one-second
// ticks; after each, sample reports the CPU microseconds the measured
// process has used so far. A traced window instead alternates untraced
// and traced segments. run returns the ticks and the time spent in each
// mode.
func (w *window) run(start time.Time, traced bool, callers []*caller, body func(*caller), sample func() int64) (ticks []tick, modeTime [2]time.Duration) {
	work := func() (n int64) {
		for _, c := range callers {
			n += c.work.Load()
		}
		return n
	}
	prevWork, prevCPU, prevT := work(), sample(), time.Now()
	var wg sync.WaitGroup
	for _, c := range callers {
		c.start = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	if !traced {
		for i := 1; time.Duration(i)*time.Second <= w.end.Sub(start); i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second)))
			n, cpu, now := work(), sample(), time.Now()
			ticks = append(ticks, tick{float64(n-prevWork) / now.Sub(prevT).Seconds(), ratio{float64(cpu - prevCPU), float64(n - prevWork)}})
			prevWork, prevCPU, prevT = n, cpu, now
		}
		wg.Wait()
		modeTime[0] = time.Since(start)
		return ticks, modeTime
	}
	seg := w.end.Sub(start) / traceSegments
	last, mode := start, 0
	for s := 0; s < traceSegments; s++ {
		if s > 0 {
			now := time.Now()
			modeTime[mode] += now.Sub(last)
			last = now
		}
		mode = s % 2
		w.tracing.Store(mode == 1)
		time.Sleep(time.Until(start.Add(seg * time.Duration(s+1))))
	}
	wg.Wait()
	modeTime[mode] += time.Since(last)
	w.tracing.Store(false)
	return nil, modeTime
}

// tickMedians returns the median rate and the median CPU per request
// over the ticks that completed any request.
func tickMedians(ticks []tick) (rate, cpu float64) {
	var rates, cpus []float64
	for _, t := range ticks {
		rates = append(rates, t.rate)
		if t.cpu.Den > 0 {
			cpus = append(cpus, t.cpu.Value())
		}
	}
	return median(rates), median(cpus)
}

// httpRun is the load generator's view of one HTTP workload run.
type httpRun struct {
	window
	w      spec
	seed   int64
	bodies [][]byte
	target string
	groups int
	// hard bounds every read and write, so a stuck request fails
	// instead of hanging the run.
	hard time.Time
}

// unit starts one caller unit (a batch, request or connection): its
// mode, and its trace ID when it is one of the sampled traced units.
func (r *httpRun) unit(c *caller) (mode int, trace uint64) {
	c.seq++
	if !r.tracing.Load() {
		return 0, 0
	}
	if c.seq%r.w.traceEvery != 0 {
		return 1, 0
	}
	return 1, uint64(c.id+1)<<40 | c.seq
}

// dialPinned opens caller c's keep-alive connection from a seeded flow
// group that worker c.id%serverWorkers owns.
func (r *httpRun) dialPinned(c *caller) *clientConn {
	worker := c.id % serverWorkers
	g := ownedGroup(c.rng, worker, r.groups, serverWorkers)
	cc, err := dialGroup(r.target, g, r.groups, r.hard, nil)
	if err != nil {
		c.note(err)
		return nil
	}
	c.placed = append(c.placed, placement{port: cc.port, group: g, worker: worker})
	return cc
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	metrics           []metric
	notes             []string // printed before the result line
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func (res *result) add(name string, value float64, unit, note string) {
	res.metrics = append(res.metrics, metric{name, value, unit, note})
}

func (res *result) addRatio(name string, r ratio, baseName string) {
	res.add(name, r.Value(), "ratio", fmt.Sprintf("%.0f / %.0f %s", r.Num, r.Den, baseName))
}

func (res *result) notef(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// addPercentiles reports a latency summary's p50 and p99 under the given
// names, stating the sample count and whether the p99 has enough
// samples beyond it.
func (res *result) addPercentiles(p50Name, p99Name string, s latencySummary, what string) {
	res.add(p50Name, us(s.P50), "us", fmt.Sprintf("n=%d %s", s.N, what))
	note := fmt.Sprintf("n=%d, %d beyond", s.N, beyond(s.N, 0.99))
	if !s.P99OK {
		note += "; fewer than 10 beyond, not a supported p99"
	}
	res.add(p99Name, us(s.P99), "us", note)
}

// addEndToEndLatency reports the end-to-end latency: the median over
// the whole window, and the p99 as the median of the per-second p99s
// where the ticks hold enough samples (the whole window's p99
// otherwise).
func addEndToEndLatency(res *result, all latencySummary, callers []*caller, ticks int, what string) {
	p99, n := tickP99(callers, ticks)
	if n == 0 {
		res.addPercentiles("latency_p50_us", "latency_p99_us", all, what+", p99 over the whole window")
		return
	}
	res.add("latency_p50_us", us(all.P50), "us", fmt.Sprintf("n=%d %s", all.N, what))
	res.add("latency_p99_us", p99/1e3, "us", fmt.Sprintf("median of the p99s of %d one-second ticks with >= %d samples (whole window p99 %.1f, n=%d)",
		n, 100*minBeyond, us(all.P99), all.N))
}

// rusageSelf reads this process's CPU time (user + system), context
// switches (voluntary + involuntary) and peak RSS.
func rusageSelf() (cpuUs, ctxsw, maxRSSKB int64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0, 0
	}
	return ru.Utime.Nano()/1e3 + ru.Stime.Nano()/1e3, ru.Nvcsw + ru.Nivcsw, ru.Maxrss
}

// runHTTP sets up the workload's server process setupReps times, keeps
// the last, and drives it for seconds.
func runHTTP(w spec, seed int64, seconds time.Duration, traced bool) (*result, error) {
	res := &result{}
	bodies := makeBodies(w, seed)
	setupRNG := rand.New(rand.NewSource(seed ^ 0x7365747570))
	var setups []float64
	var h *serverHandle
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		srv, err := spawnServer(w, seed, traced)
		if err != nil {
			return nil, err
		}
		conns, err := firstResponses(w, srv, bodies, seed, setupRNG)
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 || err != nil {
			srv.stop()
		} else {
			h = srv
		}
		for _, cc := range conns {
			if w.pinned {
				cc.abort()
			} else {
				cc.close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
	}
	defer h.stop()

	callers := make([]*caller, w.callers)
	for i := range callers {
		callers[i] = &caller{id: i, rng: callerRNG(seed, i)}
		callers[i].lat[0] = make([]int64, 0, 1<<16)
		if traced {
			callers[i].spans = make([]span, 0, clientSpanCap)
		}
	}
	var before, after serverSnap
	if err := h.call("snap", &before); err != nil {
		return nil, err
	}
	clientCPU0, _, _ := rusageSelf()
	start := time.Now()
	r := &httpRun{w: w, seed: seed, bodies: bodies, target: h.info.Addr, groups: h.info.Groups}
	r.end, r.hard = start.Add(seconds), start.Add(seconds+hardGrace)
	ticks, modeTime := r.run(start, traced, callers, func(c *caller) { w.drive(r, c) }, func() int64 {
		var cpu int64
		h.call("cpu", &cpu)
		return cpu
	})
	elapsed := time.Since(start)
	clientCPU1, _, _ := rusageSelf()
	if err := h.call("snap", &after); err != nil {
		return nil, err
	}

	var ok [2]int64
	var lat [2][]int64
	var spans []span
	for _, c := range callers {
		for m := 0; m < 2; m++ {
			ok[m] += c.ok[m]
			res.failed += c.failed[m]
			lat[m] = append(lat[m], c.lat[m]...)
		}
		spans = append(spans, c.spans...)
		if c.err != nil {
			fmt.Fprintf(os.Stderr, "caller %d: first failure: %v\n", c.id, c.err)
		}
	}
	requests := ok[0] + ok[1]
	res.attempted = requests + res.failed
	unit := "per request"
	if w.name == "http-pipelined" {
		unit = fmt.Sprintf("per batch of %d", pipelineDepth)
	}
	env(res, h.info)
	res.notef("window %.3fs, %d callers, %d requests completed, %d failed, load-generator CPU %.0f us/request",
		elapsed.Seconds(), w.callers, requests, res.failed, float64(clientCPU1-clientCPU0)/float64(max(requests, 1)))
	reportPlacement(res, h, w, seed, callers)

	if !traced {
		rate, cpu := tickMedians(ticks)
		res.notef("ticks (per second, cpu us/request): %s", fmtTicks(ticks))
		res.add("throughput_rps", rate, "1/s", fmt.Sprintf("completed requests per second, median of %d one-second ticks (whole window %.0f)",
			len(ticks), float64(requests)/elapsed.Seconds()))
		addEndToEndLatency(res, summarize(lat[0]), callers, len(ticks), unit)
		res.add("server_cpu_us_per_req", cpu, "us", fmt.Sprintf("server process user+sys per request, median of the ticks (whole window %d us / %d requests)",
			after.CPUUs-before.CPUUs, requests))
		res.add("peak_rss_mb", float64(after.MaxRSSKB)/1024, "MB", "server process maxrss")
		res.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d spawns to first correct response %v", len(setups), fmtSecs(setups)))
		return res, nil
	}

	srvSpans, dropped, err := h.spans()
	if err != nil {
		return nil, err
	}
	spans = append(spans, srvSpans...)
	st := newSpanStats(spans)
	client := summarize(lat[0])
	svcN := after.Served - before.Served
	d := func(a, b uint64) float64 { return float64(a - b) }
	front := kindHandler
	if w.proxied {
		front = kindProxyServe
	}
	handler := summarize(st.dur[front])
	res.add("serve.accepts_per_s", d(after.Accepted, before.Accepted)/elapsed.Seconds(), "1/s", "")
	res.add("serve.served", d(after.Served, before.Served), "count", "handler passes, base of the serve ratios")
	res.addRatio("serve.local_ratio", ratio{d(after.ServedLocal, before.ServedLocal), d(after.Served, before.Served)}, "passes")
	res.addRatio("serve.stolen_ratio", ratio{d(after.ServedStolen, before.ServedStolen), d(after.Served, before.Served)}, "passes")
	res.add("serve.migrations", d(after.Migrations, before.Migrations), "count", "")
	res.addRatio("serve.requeues_per_req", ratio{d(after.Requeued, before.Requeued), float64(requests)}, "requests")
	res.add("serve.dropped", d(after.Dropped, before.Dropped), "count", "")
	res.addRatio("server.ctxsw_per_req", ratio{float64(after.Ctxsw - before.Ctxsw), float64(requests)}, "requests")
	res.add("client.requests", float64(requests), "count", "base of the per-request ratios")
	res.add("httpaff.service_p50_us", us(after.SvcP50), "us", fmt.Sprintf("front server histogram, >= %d samples", svcN))
	res.add("httpaff.service_p99_us", us(after.SvcP99), "us", fmt.Sprintf("front server histogram, >= %d samples", svcN))
	res.add("httpaff.wait_p50_us", us(client.P50-after.SvcP50), "us", fmt.Sprintf("client p50 (untraced segments, n=%d, %s) minus service p50", client.N, unit))
	res.add("httpaff.handler_p50_us", us(handler.P50), "us", fmt.Sprintf("%s spans, n=%d", kindNames[front], handler.N))
	res.add("httpaff.self_p50_us", us(after.SvcP50-handler.P50), "us", "service p50 minus handler p50")
	res.addRatio("httpaff.arena_reuse_ratio", ratio{d(after.ArenaReuses, before.ArenaReuses), d(after.ArenaGets, before.ArenaGets)}, "arena gets")
	res.add("client.self_p50_us", us(summarize(st.self[kindClient]).P50), "us",
		fmt.Sprintf("client span minus the server spans under it, n=%d", len(st.self[kindClient])))
	if w.proxied {
		serve := summarize(st.dur[kindProxyServe])
		res.addPercentiles("proxyaff.serve_p50_us", "proxyaff.serve_p99_us", serve, "spans around (*Proxy).Serve")
		res.add("proxyaff.serve_self_p50_us", us(summarize(st.self[kindProxyServe]).P50), "us", "proxy span minus backend handler span")
		res.add("proxyaff.backend_service_p50_us", us(after.BackendSvcP50), "us", "mean of the backends' histogram medians")
		res.add("proxyaff.upstream_wait_p50_us", us(serve.P50-after.BackendSvcP50), "us", "serve p50 minus backend service p50")
		res.addRatio("proxyaff.upstream_reuse_ratio", ratio{d(after.UpstreamReuses, before.UpstreamReuses), d(after.UpstreamGets, before.UpstreamGets)}, "upstream checkouts")
	}
	res.add("core.route_ns", routeNs(seed, h.info.Groups), "ns", "GuardedFlowTable.Route over the http-churn port sequence, median of 5")
	res.add("obs.hist_record_ns", histRecordNs(lat[0]), "ns", "obs.Hist.Record of this run's latencies, median of 5")
	simLayer(res, seed)
	traceMetrics(res, ok, modeTime, len(spans), dropped)
	return res, nil
}

// traceMetrics reports the traced segments' throughput next to the
// untraced segments' of the same run.
func traceMetrics(res *result, ok [2]int64, modeTime [2]time.Duration, spans, dropped int) {
	untraced := float64(ok[0]) / modeTime[0].Seconds()
	traced := float64(ok[1]) / modeTime[1].Seconds()
	res.add("trace.untraced_throughput_rps", untraced, "1/s", fmt.Sprintf("%d in %.3fs", ok[0], modeTime[0].Seconds()))
	res.add("trace.throughput_rps", traced, "1/s", fmt.Sprintf("%d in %.3fs", ok[1], modeTime[1].Seconds()))
	res.add("trace.overhead_ratio", 1-traced/untraced, "ratio", "1 - traced/untraced throughput")
	res.add("trace.spans", float64(spans), "count", fmt.Sprintf("%d dropped for lack of buffer", dropped))
}

// firstResponses opens the connections a workload starts with and
// checks one response on each; set-up ends when they are all correct.
func firstResponses(w spec, h *serverHandle, bodies [][]byte, seed int64, rng *rand.Rand) ([]*clientConn, error) {
	deadline := time.Now().Add(ctlTimeout)
	var conns []*clientConn
	var groups []int
	if w.pinned {
		for worker := 0; worker < serverWorkers; worker++ {
			groups = append(groups, ownedGroup(rng, worker, h.info.Groups, serverWorkers))
		}
	} else {
		cg := churnGroups(seed, h.info.Groups)
		groups = append(groups, cg[rng.Intn(len(cg))])
	}
	for _, g := range groups {
		cc, err := dialGroup(h.info.Addr, g, h.info.Groups, deadline, nil)
		if err != nil {
			return conns, err
		}
		conns = append(conns, cc)
		cc.appendRequest(pathOf(0), 0, 0, !w.pinned)
		if err := cc.flush(); err != nil {
			return conns, err
		}
		if err := cc.readResponse(bodies[0]); err != nil {
			return conns, err
		}
	}
	return conns, nil
}

// reportPlacement records the seeded connection -> worker map and the
// owner the server reports for each port at the end of the run; for
// http-churn, how many of its seeded flow groups worker 0 owns at the
// start and at the end.
func reportPlacement(res *result, h *serverHandle, w spec, seed int64, callers []*caller) {
	if !w.pinned {
		cg := churnGroups(seed, h.info.Groups)
		atStart, atEnd := 0, 0
		for _, g := range cg {
			if core.InitialOwner(g, serverWorkers) == 0 {
				atStart++
			}
			owner := -1
			h.call(fmt.Sprintf("owner %d", loadgen.PortBase(h.info.Groups)+g), &owner)
			if owner == 0 {
				atEnd++
			}
		}
		res.notef("flow groups: %d of the %d seeded groups on worker 0 at start, %d at end", atStart, len(cg), atEnd)
	}
	for _, c := range callers {
		for i, p := range c.placed {
			if i == 4 {
				res.notef("caller %d: %d more connections", c.id, len(c.placed)-i)
				break
			}
			owner := -1
			h.call(fmt.Sprintf("owner %d", p.port), &owner)
			res.notef("caller %d: port %d -> group %d -> worker %d at start, %d at end", c.id, p.port, p.group, p.worker, owner)
		}
	}
}

// env records the environment the figures were measured in.
func env(res *result, info readyInfo) {
	tw := "unreadable"
	if b, err := os.ReadFile("/proc/sys/net/ipv4/tcp_tw_reuse"); err == nil {
		tw = strings.TrimSpace(string(b))
	}
	res.notef("env: nproc=%d client GOMAXPROCS=%d server GOMAXPROCS=%d workers=%d sharded=%v go=%s tcp_tw_reuse=%s traffic=loopback(%s)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), info.Gomaxprocs, info.Workers, info.Sharded, runtime.Version(), tw, info.Addr)
	res.notef("env: the host drifts between batches of runs; compare two builds only with interleaved runs")
}

func fmtTicks(ticks []tick) string {
	parts := make([]string, len(ticks))
	for i, t := range ticks {
		parts[i] = fmt.Sprintf("%.0f/%.2f", t.rate, t.cpu.Value())
	}
	return strings.Join(parts, " ")
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

var sink int

// routeNs times GuardedFlowTable.Route over the source ports http-churn
// dials for this seed; the median of 5 timings, in ns per route.
func routeNs(seed int64, groups int) float64 {
	ft := core.NewGuardedFlowTable(groups, serverWorkers)
	cg := churnGroups(seed, groups)
	rng := rand.New(rand.NewSource(seed))
	ports := make([]uint16, 4096)
	for i := range ports {
		ports[i] = uint16(loadgen.PortBase(groups) + cg[rng.Intn(len(cg))])
	}
	const n = 1 << 20
	var reps []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			g, c := ft.Route(ports[i&(len(ports)-1)], 1)
			sink += g + c
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(reps)
}

// histRecordNs times obs.Hist.Record over the given samples; the median
// of 5 timings, in ns per record.
func histRecordNs(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	h := obs.NewHist(0)
	const n = 1 << 20
	var reps []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			h.Record(samples[i%len(samples)])
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(reps)
}
