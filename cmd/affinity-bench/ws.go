// The -ws mode drives the wsaff WebSocket layer: long-lived upgraded
// connections with skewed traffic (every active connection's flow group
// initially owned by worker 0, the §3.3.2 problem shape), an optional
// held-open population of mostly-idle subscribed sockets, and an
// optional broadcast publisher. It reports echo throughput, locality
// after migration, the held/parked population, and the wsaff counters
// (frames, pings, broadcasts, codec-pool reuse).
package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/internal/loadgen"
	"affinityaccept/serve"
	"affinityaccept/wsaff"
)

// runWSBench starts an httpaff+wsaff echo server and drives it with
// skewed long-lived WebSocket clients.
func runWSBench(o opts) error {
	if fds := raiseFDLimit(); fds > 0 && uint64(2*(o.clients+o.held)+64) > fds {
		return fmt.Errorf("-ws with %d connections needs ~%d file descriptors (two per loopback conn); the limit is %d — lower -held or raise ulimit -n",
			o.clients+o.held, 2*(o.clients+o.held)+64, fds)
	}
	ws, err := wsaff.New(wsaff.Config{
		Workers: o.workers,
		OnOpen:  func(c *wsaff.Conn) { c.Subscribe() },
		OnMessage: func(c *wsaff.Conn, op wsaff.Op, payload []byte) {
			if o.work > 0 {
				time.Sleep(o.work)
			}
			c.Send(op, payload)
		},
	})
	if err != nil {
		return err
	}
	ws.Start()
	defer ws.Close()
	cfg := o.httpConfig(func(ctx *httpaff.RequestCtx) { ws.Upgrade(ctx) })
	// The skewed keep-alive queue must cross the busy watermark for
	// stealing (and therefore migration) to engage.
	cfg.Backlog = o.workers * 64
	cfg.HighPct, cfg.LowPct = 20, 5
	srv, err := httpaff.New(cfg)
	if err != nil {
		return err
	}
	srv.Start()
	target := srv.Addr().String()
	banner("wsaff", srv, o)
	// The skew is read off the fresh flow table, before the held
	// population's accepts give the migration loop anything to move.
	groups, hot := skew(o, srv)

	h := newHarness(o.duration)
	var heldN, bcastGot atomic.Uint64

	// Held-open population: upgraded, subscribed (OnOpen), then idle —
	// they only answer pings and drain broadcasts. Dialed plainly so
	// they spread over all workers, like a real fleet of mostly-idle
	// clients; dialed concurrently so a 10k population builds in
	// seconds, before the measurement window opens. At most
	// heldDialsInFlight dials are outstanding: the server's per-worker
	// queues hold Backlog/workers = 64 connections, and a wider burst
	// overflows them on a small machine, so the server sheds fresh
	// upgrades (Stats.Dropped) and the clients see EOF or a reset.
	// Source IPs rotate through 127.0.0.0/8 every 20k connections: one
	// loopback address has only ~28k ephemeral ports against a single
	// listener, so a 100k+ population needs several — Linux answers for
	// the whole /8 without configuration.
	const heldDialsInFlight = 16
	var heldWG, dialWG sync.WaitGroup
	var heldMu sync.Mutex
	heldClients := make([]*wsaff.Client, 0, o.held)
	dialSem := make(chan struct{}, heldDialsInFlight)
	for i := 0; i < o.held; i++ {
		dialWG.Add(1)
		dialSem <- struct{}{}
		src := i / 20000
		go func() {
			defer dialWG.Done()
			defer func() { <-dialSem }()
			d := net.Dialer{LocalAddr: &net.TCPAddr{
				IP: net.IPv4(127, 0, byte(src>>8), byte(1+src&0xff)),
			}}
			nc, err := d.Dial("tcp", target)
			if err != nil {
				h.failed.Add(1)
				return
			}
			c, err := wsaff.NewClient(nc, "/")
			if err != nil {
				nc.Close()
				h.failed.Add(1)
				return
			}
			heldN.Add(1)
			c.NetConn().SetDeadline(time.Now().Add(o.duration + 60*time.Second))
			// One send opens the conn server-side (OnOpen → Subscribe).
			if err := c.Send(wsaff.OpText, []byte("hold")); err != nil {
				c.Close()
				h.failed.Add(1)
				return
			}
			heldMu.Lock()
			heldClients = append(heldClients, c)
			heldMu.Unlock()
			// A reader goroutine exists only when broadcasts will arrive.
			// With no publisher a held client is pure socket: the bench
			// process itself then demonstrates the O(workers) goroutine
			// bound the event loop buys — CI asserts the sampled count.
			// (Server pings start at 30s, past any bench window, so an
			// unread socket never misses a pong within the run.)
			if o.broadcastEvery > 0 {
				heldWG.Add(1)
				go func() {
					defer heldWG.Done()
					for {
						op, _, err := c.ReadMessage() // auto-pongs pings
						if err != nil || op == wsaff.OpClose {
							return
						}
						bcastGot.Add(1)
					}
				}()
			}
		}()
	}
	dialWG.Wait()
	// The measurement window opens only now that the held population is
	// parked, so frames/s measures the echo path, not the dial phase.
	h.stop = time.Now().Add(o.duration)

	// Broadcast publisher. The fill byte distinguishes broadcast frames
	// from echo frames, so the closed-loop clients can skip interleaved
	// broadcasts instead of mistaking one for their echo.
	bcastStop, bcastDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(bcastDone)
		if o.broadcastEvery <= 0 {
			return
		}
		payload := bytes.Repeat([]byte{'b'}, o.payload)
		t := time.NewTicker(o.broadcastEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ws.Broadcast(wsaff.OpBinary, payload)
			case <-bcastStop:
				return
			}
		}
	}()

	// Active echo clients, skewed onto the hot workers' flow groups.
	for i := 0; i < o.clients; i++ {
		nc, err := loadgen.DialGroup(target, hot[i%len(hot)], groups)
		if err != nil {
			h.failed.Add(1)
			continue
		}
		wc, err := wsaff.NewClient(nc, "/")
		if err != nil {
			nc.Close()
			h.failed.Add(1)
			continue
		}
		wc.NetConn().SetDeadline(time.Now().Add(o.duration + 30*time.Second))
		h.spawn(func(c *client) {
			defer wc.Close()
			msg := bytes.Repeat([]byte{'e'}, o.payload)
			c.loop(1, func() error {
				_, err := wc.Echo(wsaff.OpBinary, msg)
				return err
			})
		})
	}

	// Wait for the echo window, then stop broadcasting and release the
	// held population.
	for h.live() {
		time.Sleep(10 * time.Millisecond)
	}
	// Sample the process goroutine count while the held population is at
	// its peak: with the event loop parking conns, the total is
	// O(workers) + O(active clients), never O(held). Also record the
	// worst per-worker coarse-clock staleness (bounded by the loops'
	// poll interval).
	goroutines := runtime.NumGoroutine()
	var clockLagUs float64
	tr := srv.Transport()
	for i := 0; i < o.workers; i++ {
		if lag := float64(time.Since(tr.CoarseNow(i)).Microseconds()); lag > clockLagUs {
			clockLagUs = lag
		}
	}
	close(bcastStop)
	<-bcastDone
	h.wait()
	parked := tr.Parked()
	wsStats := ws.Stats()
	for _, c := range heldClients {
		c.Close()
	}
	heldWG.Wait()

	held := heldN.Load()
	return (&run{
		o: o, srv: srv, h: h,
		title: fmt.Sprintf("WS — skewed long-lived echo over loopback (%d active conns on hot groups, %d held-open subscribed, %dB frames, %v work/msg)",
			o.clients, held, o.payload, o.work),
		rep: benchReport{
			LongLived:    o.clients + int(held),
			WSHeld:       held,
			WSParked:     parked,
			WSFramesIn:   wsStats.FramesIn,
			WSFramesOut:  wsStats.FramesOut,
			WSPings:      wsStats.PingsSent,
			WSPongs:      wsStats.PongsReceived,
			WSBroadcasts: wsStats.Broadcasts,
			WSDelivered:  wsStats.Delivered,
			WSReceived:   bcastGot.Load(),

			HeldConns:        held,
			Goroutines:       goroutines,
			CoarseClockLagUs: clockLagUs,
		},
		codecPool: &wsStats.Pool,
		detail: func(serve.Stats, *benchReport) {
			fmt.Printf("process: %d goroutines with %d sockets held open, %d parked at window end; coarse clock at most %.0fus stale\n",
				goroutines, held, parked, clockLagUs)
			fmt.Printf("wsaff: %d frames in / %d out, %d pings, %d pongs, %d broadcasts (%d delivered, %d shard drops), codec reuse %.1f%%\n",
				wsStats.FramesIn, wsStats.FramesOut, wsStats.PingsSent, wsStats.PongsReceived,
				wsStats.Broadcasts, wsStats.Delivered, wsStats.Dropped, wsStats.Pool.ReusePct())
		},
	}).finish()
}
