// The machinery the five loopback modes share: the server-config
// mappings of the transport flags, the closed-loop client harness, the
// hot-group skew, and the one end-of-run path that prints the report,
// shuts the server down, and writes the -trace and -json output.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept"
	"affinityaccept/httpaff"
	"affinityaccept/internal/loadgen"
	"affinityaccept/internal/obs"
	"affinityaccept/serve"
)

// serveConfig maps the transport flags onto serve.Config (-serve).
func (o opts) serveConfig() serve.Config {
	return serve.Config{
		Addr:                 o.addr,
		Workers:              o.workers,
		DisableReusePort:     o.noShard,
		FlowGroups:           o.groups,
		MigrateInterval:      o.migrateEvery,
		DisableMigration:     !o.migrate,
		Chips:                o.chips,
		DisableDistanceAware: !o.distAware,
		AdaptiveMigration:    o.adaptive,
		PinWorkers:           o.pin,
	}
}

// httpConfig maps the transport flags onto httpaff.Config for the
// server under test in -http, -proxy, -ws and -hostile.
func (o opts) httpConfig(h httpaff.HandlerFunc) httpaff.Config {
	return httpaff.Config{
		Addr:                 o.addr,
		Workers:              o.workers,
		Handler:              h,
		DisableReusePort:     o.noShard,
		FlowGroups:           o.groups,
		MigrateInterval:      o.migrateEvery,
		DisableMigration:     !o.migrate,
		Chips:                o.chips,
		DisableDistanceAware: !o.distAware,
		AdaptiveMigration:    o.adaptive,
		PinWorkers:           o.pin,
	}
}

// server is what the shared banner, skew and end-of-run path need from
// the server under test; *serve.Server and *httpaff.Server both fit.
type server interface {
	Addr() net.Addr
	Sharded() bool
	FlowGroups() int
	OwnerOf(remotePort uint16) int
	Shutdown(context.Context) error
	Stats() serve.Stats
	Events() []obs.Event
}

// banner prints the start line of a server mode.
func banner(name string, s server, o opts) {
	mode := "shared listener"
	if s.Sharded() {
		mode = "SO_REUSEPORT shards"
	}
	migr := "off"
	if o.migrate {
		migr = "on"
	}
	fmt.Printf("%s on %s: %d workers, %s, %d flow groups, migration %s\n",
		name, s.Addr(), o.workers, mode, s.FlowGroups(), migr)
	if o.chips > 1 {
		order := "distance-aware (same-chip victims first)"
		if !o.distAware {
			order = "distance-blind (wraparound scan)"
		}
		fmt.Printf("numa: %d chips, %s steal order\n", o.chips, order)
	}
}

// skew returns the flow-group count the server rounds o.groups up to
// and the groups owned by the hot workers: the groups whose source
// ports the skewed long-lived clients dial from. The heat lands on
// worker 0 by default. With -hot-workers N it lands on N workers spread
// one per chip first (worker 0, then the first worker of the next chip,
// …), so a distance-aware A/B gives every thief both a same-chip and a
// cross-chip hot victim to choose between. srv is nil for an external
// target, whose flow table is assumed fresh.
func skew(o opts, srv server) (groups int, hot []int) {
	groups = 1
	for groups < o.groups {
		groups <<= 1
	}
	base := loadgen.PortBase(groups)
	hotOwners := map[int]bool{0: true}
	if o.hotWorkers > 1 {
		chips := max(o.chips, 1)
		perChip := (o.workers + chips - 1) / chips
		hotOwners = make(map[int]bool)
		for k := 0; k < o.hotWorkers; k++ {
			hotOwners[((k%chips)*perChip+k/chips)%o.workers] = true
		}
	}
	for g := 0; g < groups; g++ {
		owner := affinityaccept.InitialFlowOwner(g, o.workers)
		if srv != nil {
			owner = srv.OwnerOf(uint16(base + g))
		}
		if hotOwners[owner] {
			hot = append(hot, g)
		}
	}
	if len(hot) == 0 {
		hot = []int{0}
	}
	return groups, hot
}

// harness is the closed-loop client side of every mode: clients run
// until the deadline, each timing its exchanges into a private slice
// that is merged under the mutex when the client exits.
type harness struct {
	stop                time.Time
	wg                  sync.WaitGroup
	mu                  sync.Mutex
	lat                 []float64 // µs per request
	reqs, conns, failed atomic.Uint64
}

func newHarness(window time.Duration) *harness {
	return &harness{stop: time.Now().Add(window)}
}

// live reports whether the measurement window is still open.
func (h *harness) live() bool { return time.Now().Before(h.stop) }

// spawn runs body as one client goroutine.
func (h *harness) spawn(body func(c *client)) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		c := &client{harness: h, lat: make([]float64, 0, 4096)}
		body(c)
		h.mu.Lock()
		h.lat = append(h.lat, c.lat...)
		h.mu.Unlock()
	}()
}

// wait returns once every client has exited.
func (h *harness) wait() { h.wg.Wait() }

// client is one harness goroutine and its private latency log.
type client struct {
	*harness
	lat []float64
}

// exchange times one round trip carrying n requests, logging the
// per-request latency on success and counting a failure otherwise.
func (c *client) exchange(n int, roundTrip func() error) bool {
	t0 := time.Now()
	if err := roundTrip(); err != nil {
		c.failed.Add(1)
		return false
	}
	c.lat = append(c.lat, float64(time.Since(t0).Microseconds())/float64(n))
	c.reqs.Add(uint64(n))
	return true
}

// loop runs exchanges until the window closes or one fails.
func (c *client) loop(n int, roundTrip func() error) {
	for c.live() && c.exchange(n, roundTrip) {
	}
}

// roundTrip writes req and reads exactly len(resp) bytes back.
func roundTrip(conn net.Conn, req, resp []byte) error {
	if _, err := conn.Write(req); err != nil {
		return err
	}
	_, err := io.ReadFull(conn, resp)
	return err
}

// run is one loopback benchmark: the mode starts its server, fills in
// its own record fields, drives the load through h and calls finish.
type run struct {
	o     opts
	srv   server // nil when driving an external target
	h     *harness
	title string      // heading of the client table
	rep   benchReport // the mode's own record fields
	// codecPool, when set, is the pool the record's pool fields report
	// instead of the server's (-ws: the wsaff codec-buffer pool).
	codecPool *serve.PoolStats
	// detail prints the mode's own report lines, and fills its own
	// record fields, once the server has shut down.
	detail func(st serve.Stats, rep *benchReport)
}

// finish is the end-of-run path of every mode: the client table,
// shutdown, the server's Stats into the record, the -trace export and
// the -json append.
func (r *run) finish() error {
	o, rep := r.o, &r.rep
	r.h.wait()
	secs := o.duration.Seconds()
	rep.Scenario = o.scenario()
	rep.Workers = o.workers
	if rep.Clients == 0 { // -serve -longlived reports its own population
		rep.Clients = o.clients
	}
	rep.DurationSecs = secs
	rep.ReqPerSec = float64(r.h.reqs.Load()) / secs
	rep.ConnPerSec = float64(r.h.conns.Load()) / secs
	sort.Float64s(r.h.lat)
	rep.P50us, rep.P95us, rep.P99us = percentile(r.h.lat, 50), percentile(r.h.lat, 95), percentile(r.h.lat, 99)
	rep.Failed = r.h.failed.Load()
	rep.MigrationOn = o.migrate
	printTable(r.title, *rep)

	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.srv.Shutdown(ctx); err != nil {
			fmt.Println("shutdown:", err)
		}
		st := r.srv.Stats()
		pool := st.Pool
		if r.codecPool != nil {
			pool = *r.codecPool
		}
		rep.addStats(o, st, pool)
		fmt.Println()
		if r.detail != nil {
			r.detail(st, rep)
		}
		fmt.Print(st)
		if o.tracePath != "" {
			spans, err := saveTrace(o.tracePath, o.workers, r.srv.Events())
			if err != nil {
				return fmt.Errorf("write %s: %w", o.tracePath, err)
			}
			rep.TraceFile, rep.TraceSpans = o.tracePath, spans
			fmt.Printf("trace: %d residency spans written to %s\n", spans, o.tracePath)
		}
	}
	rep.fillEnv()
	if o.jsonPath != "" {
		if err := appendJSONReport(o.jsonPath, *rep); err != nil {
			return fmt.Errorf("write %s: %w", o.jsonPath, err)
		}
		fmt.Printf("\nappended %q record to %s\n", rep.Scenario, o.jsonPath)
	}
	return nil
}

// printTable prints the client-side summary under title: one aligned
// header and row, with the mode-specific columns its record carries.
func printTable(title string, rep benchReport) {
	cols := [][2]string{{"workers", fmt.Sprint(rep.Workers)}, {"clients", fmt.Sprint(rep.Clients)}}
	if rep.Backends > 0 {
		cols = append(cols, [2]string{"backends", fmt.Sprint(rep.Backends)})
	}
	if rep.Pipeline > 0 {
		cols = append(cols, [2]string{"pipeline", fmt.Sprint(rep.Pipeline)})
	}
	if rep.WSHeld > 0 {
		cols = append(cols, [2]string{"held", fmt.Sprint(rep.WSHeld)})
	}
	cols = append(cols, [2]string{"secs", fmt.Sprintf("%.1f", rep.DurationSecs)},
		[2]string{"req/s", fmt.Sprintf("%.0f", rep.ReqPerSec)})
	if rep.ConnPerSec > 0 {
		cols = append(cols, [2]string{"conn/s", fmt.Sprintf("%.0f", rep.ConnPerSec)})
	}
	cols = append(cols, [2]string{"p50(us)", fmt.Sprintf("%.0f", rep.P50us)},
		[2]string{"p95(us)", fmt.Sprintf("%.0f", rep.P95us)},
		[2]string{"p99(us)", fmt.Sprintf("%.0f", rep.P99us)},
		[2]string{"failed", fmt.Sprint(rep.Failed)})
	var head, row strings.Builder
	for _, c := range cols {
		w := max(len(c[0]), len(c[1]))
		fmt.Fprintf(&head, "%-*s  ", w, c[0])
		fmt.Fprintf(&row, "%-*s  ", w, c[1])
	}
	fmt.Printf("\n%s\n%s\n%s\n", title, head.String(), row.String())
}

// percentile returns the p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p/100*float64(len(sorted)-1))]
}

// saveTrace writes the event timeline to path as a Chrome trace-event
// file (one track per worker, residency spans per flow group; loads in
// chrome://tracing or Perfetto) and returns the residency-span count.
func saveTrace(path string, workers int, events []obs.Event) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	spans, err := obs.WriteTrace(f, workers, events)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return spans, err
}
