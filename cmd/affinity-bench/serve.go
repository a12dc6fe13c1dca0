// The -serve / -client modes drive the real serve.Server (instead of
// the simulator) and print a locality/steal report in the same aligned
// table shape as the simulator's experiments.
package main

import (
	"fmt"
	"io"
	"net"
	"time"

	"affinityaccept/internal/loadgen"
	"affinityaccept/internal/obs"
	"affinityaccept/serve"
)

// runServeBench starts (unless -client points elsewhere) a serve.Server,
// drives it with a closed-loop load generator over loopback — short
// echo connections by default, long-lived skewed keep-alive connections
// with -longlived — and prints throughput, latency percentiles and the
// per-worker locality/steal/migration table.
func runServeBench(o opts) error {
	if o.longlived > 0 && o.stallMS > 0 {
		// The handler switch below would silently drop the stall and
		// mislabel the run; refuse rather than measure the wrong thing.
		return fmt.Errorf("-stall cannot be combined with -longlived (the keep-alive workload overloads worker 0 via -work instead)")
	}
	r := &run{o: o, rep: benchReport{LongLived: o.longlived}}
	target := o.client
	if target == "" {
		var srv *serve.Server
		cfg := o.serveConfig()
		switch {
		case o.longlived > 0:
			cfg.Handler = func(conn net.Conn) { keepAliveEcho(srv, conn, o.payload, o.work) }
			// The skewed keep-alive queue must cross the busy watermark
			// for stealing (and therefore migration) to engage.
			cfg.Backlog = o.workers * 64
			cfg.HighPct, cfg.LowPct = 20, 5
		case o.stallMS > 0:
			stall := time.Duration(o.stallMS * float64(time.Millisecond))
			cfg.WorkerHandler = func(worker int, conn net.Conn) {
				if worker == 0 {
					time.Sleep(stall)
				}
				echo(conn)
			}
			// Stealing engages when the stalled worker crosses its high
			// watermark; lower it so modest benchmark loads get there.
			cfg.HighPct, cfg.LowPct = 20, 5
		default:
			cfg.Handler = echo
		}
		var err error
		if srv, err = serve.New(cfg); err != nil {
			return err
		}
		srv.Start()
		target = srv.Addr().String()
		banner("serving", srv, o)
		r.srv = srv
		r.detail = func(st serve.Stats, rep *benchReport) { serveDetail(o, srv, st, rep) }
	} else {
		fmt.Printf("driving external server at %s\n", target)
	}

	r.h = newHarness(o.duration)
	if o.longlived > 0 {
		driveLongLived(r.h, target, r.srv, o)
		hotDesc := "worker 0's groups"
		if o.hotWorkers > 1 {
			hotDesc = fmt.Sprintf("%d hot workers' groups", o.hotWorkers)
		}
		r.rep.Clients = o.longlived
		r.title = fmt.Sprintf("SERVE — skewed keep-alive load over loopback (%d long-lived conns on %s, %dB payload, %v work/req)",
			o.longlived, hotDesc, o.payload, o.work)
	} else {
		drive(r.h, target, o)
		r.title = fmt.Sprintf("SERVE — closed-loop echo load over loopback (%d clients, %d reqs/conn, %dB payload)",
			o.clients, o.reqs, o.payload)
	}
	return r.finish()
}

// serveDetail reports the -serve specifics after shutdown. With
// -longlived it cross-checks Stats.Migrations against the control-plane
// event ring and the stitched flow journeys.
func serveDetail(o opts, srv *serve.Server, st serve.Stats, rep *benchReport) {
	if o.longlived > 0 {
		// Cross-check the stats counter against the control-plane
		// event ring: every migration the balancer applied must have
		// left a KindMigrate event (the rare-event ring never evicts
		// them for park/wake churn), so a mismatch means the trace
		// plane lost control-plane history.
		events := srv.Events()
		var migrateEvents uint64
		migratedGroups := make(map[int32]bool)
		for _, ev := range events {
			if ev.Kind == obs.KindMigrate {
				migrateEvents++
				migratedGroups[ev.Group] = true
			}
		}
		rep.MigrateEvents = migrateEvents
		if migrateEvents == st.Migrations {
			fmt.Printf("event trace: %d migrate events on the control ring — matches the stats counter\n", migrateEvents)
		} else {
			fmt.Printf("event trace: WARNING %d migrate events for %d stats migrations\n", migrateEvents, st.Migrations)
		}
		// Stitch the timeline into per-group journeys and check the
		// causal layer against the same counter: the migrate hops
		// summed over journeys must equal Stats.Migrations, and every
		// group a migrate event names must have stitched into a
		// journey of its own.
		journeys := obs.Stitch(events)
		var journeyMigrates uint64
		journeyGroups := make(map[int32]bool)
		for _, j := range journeys {
			journeyMigrates += uint64(j.Migrations)
			journeyGroups[j.Group] = true
		}
		rep.Journeys = len(journeys)
		rep.JourneyMigrateHops = journeyMigrates
		missing := 0
		for g := range migratedGroups {
			if !journeyGroups[g] {
				missing++
			}
		}
		if journeyMigrates == st.Migrations && missing == 0 {
			fmt.Printf("flow journeys: %d stitched; %d migrate hops — matches the stats counter, every migrated group has a journey\n",
				len(journeys), journeyMigrates)
		} else {
			fmt.Printf("flow journeys: WARNING %d stitched, %d migrate hops for %d stats migrations, %d migrated groups without a journey\n",
				len(journeys), journeyMigrates, st.Migrations, missing)
		}
	}
	if o.stallMS > 0 {
		fmt.Printf("note: worker 0 stalled %.1fms per connection; \"stolen\" shows the §3.3.1 rescue\n", o.stallMS)
	}
	if o.longlived > 0 && o.migrate {
		fmt.Println("note: \"migr-in\" shows §3.3.2 — non-busy workers claimed worker 0's hot groups, making later passes local")
	}
}

// keepAliveEcho is the long-lived-mode handler: one request per pass
// (read payload, spend the service time, echo), then the connection
// goes back to the server via Requeue so the next pass re-consults the
// flow table — the path migration optimizes.
func keepAliveEcho(srv *serve.Server, conn net.Conn, payload int, work time.Duration) {
	buf := make([]byte, payload)
	if _, err := io.ReadFull(conn, buf); err != nil {
		conn.Close()
		return
	}
	if work > 0 {
		time.Sleep(work)
	}
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return
	}
	if !srv.Requeue(conn) {
		conn.Close()
	}
}

// echo copies the client's bytes back until EOF.
func echo(conn net.Conn) {
	io.Copy(conn, conn)
	conn.Close()
}

// drive runs the closed-loop echo clients: each dials, exchanges up to
// o.reqs requests, closes and redials until the window ends.
func drive(h *harness, target string, o opts) {
	for i := 0; i < o.clients; i++ {
		h.spawn(func(c *client) {
			msg, buf := make([]byte, o.payload), make([]byte, o.payload)
			for c.live() {
				conn, err := net.Dial("tcp", target)
				if err != nil {
					c.failed.Add(1)
					time.Sleep(time.Millisecond) // don't hot-spin on a dead target
					continue
				}
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				c.conns.Add(1)
				rt := func() error { return roundTrip(conn, msg, buf) }
				for n := 0; n < o.reqs && c.live() && c.exchange(1, rt); n++ {
				}
				conn.Close()
			}
		})
	}
}

// driveLongLived opens o.longlived persistent connections whose source
// ports all hash into the hot workers' flow groups — the paper's skewed
// long-lived workload — and runs request/response loops on every
// connection for the window. srv is nil for an external target.
func driveLongLived(h *harness, target string, srv server, o opts) {
	groups, hot := skew(o, srv)
	if srv == nil {
		fmt.Printf("note: external target — the skew assumes the server runs %d workers and %d flow groups with no prior migrations; pass matching -workers/-groups or the workload is not skewed\n",
			o.workers, groups)
	}
	for i := 0; i < o.longlived; i++ {
		conn, err := loadgen.DialGroup(target, hot[i%len(hot)], groups)
		if err != nil {
			h.failed.Add(1)
			continue
		}
		h.conns.Add(1)
		h.spawn(func(c *client) {
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(o.duration + 30*time.Second))
			msg := make([]byte, o.payload)
			c.loop(1, func() error { return roundTrip(conn, msg, msg) })
		})
	}
}
