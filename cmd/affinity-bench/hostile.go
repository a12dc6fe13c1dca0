// The -hostile mode runs the admission-control gauntlet: a normal
// pipelined keep-alive workload shares the server with slowloris
// clients (dripping header bytes to hold workers captive) and per-IP
// connect floods (hammering accept from dedicated loopback addresses).
// The report answers the only question that matters under attack: did
// the well-behaved clients' latency stay bounded while the admission
// machinery — per-IP token buckets, the header deadline, the in-flight
// headers cap, the connection budget — absorbed the abuse?
package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/serve"
)

// hostileCounters aggregates what the attackers observed from outside.
type hostileCounters struct {
	slowClosed    atomic.Uint64 // slowloris conns the server cut off
	floodAttempts atomic.Uint64 // flood dials attempted
	floodServed   atomic.Uint64 // flood requests that got a 200
	floodRefused  atomic.Uint64 // flood conns closed/shed before a 200
}

// runHostileBench starts a hardened httpaff server, lets the normal
// workload settle, unleashes the attackers, and reports both sides.
func runHostileBench(o opts) error {
	if o.ipBurst <= 0 {
		o.ipBurst = 2 * o.clients
	}
	inflightCap := max(o.workers/2, 1)
	body := bytes.Repeat([]byte("x"), o.payload)
	cfg := o.httpConfig(func(ctx *httpaff.RequestCtx) { ctx.Write(body) })
	cfg.PerIPAcceptRate = o.ipRate
	cfg.PerIPAcceptBurst = o.ipBurst
	cfg.MaxConns = o.maxConns
	cfg.HeaderTimeout = o.headerTO
	cfg.MaxInflightHeaders = inflightCap
	cfg.ShedOnOverload = true
	srv, err := httpaff.New(cfg)
	if err != nil {
		return err
	}
	srv.Start()
	target := srv.Addr().String()
	banner("httpaff (hardened)", srv, o)
	fmt.Printf("admission: per-IP %.0f conn/s burst %d, budget %d conns, header deadline %v, %d header slots\n",
		o.ipRate, o.ipBurst, o.maxConns, o.headerTO, inflightCap)

	var hc hostileCounters
	h := newHarness(o.duration)
	var attackers sync.WaitGroup

	// Attackers hold fire until the normal clients are established
	// (connected and past their first request), then pile on for the
	// rest of the window.
	attackStart := time.Now().Add(300 * time.Millisecond)
	// Attackers dial from their own loopback aliases where the platform
	// allows (Linux routes all of 127.0.0.0/8): slowloris share one,
	// each flood gets its own, so attacker traffic exercises dedicated
	// token buckets and never spends 127.0.0.1's — the well-behaved
	// clients' — credit.
	slowSrc := loopbackSource(254, 1)
	for i := 0; i < o.slowloris; i++ {
		attackers.Add(1)
		go func() {
			defer attackers.Done()
			runSlowloris(target, slowSrc, attackStart, h.stop, &hc)
		}()
	}
	for i := 0; i < o.floods; i++ {
		attackers.Add(1)
		go func() {
			defer attackers.Done()
			runFlood(target, loopbackSource(1+i/250, 2+i%250), attackStart, h.stop, &hc)
		}()
	}

	driveHTTP(h, target, o, 20)
	h.wait()
	attackers.Wait()
	ad := srv.Admission()

	return (&run{
		o: o, srv: srv, h: h,
		title: fmt.Sprintf("HOSTILE — %d well-behaved pipelined conns vs %d slowloris + %d per-IP floods",
			o.clients, o.slowloris, o.floods),
		rep: benchReport{
			Pipeline:       o.pipeline,
			HeaderTimeouts: ad.HeaderTimeouts,
			HeaderSheds:    ad.HeaderSheds,
			OverloadSheds:  ad.OverloadSheds,
			SlowClients:    o.slowloris,
			SlowClosed:     hc.slowClosed.Load(),
			FloodClients:   o.floods,
			FloodAttempts:  hc.floodAttempts.Load(),
			FloodServed:    hc.floodServed.Load(),
			FloodRefused:   hc.floodRefused.Load(),
		},
		detail: func(st serve.Stats, _ *benchReport) {
			fmt.Printf("slowloris: %d clients, %d cut off at the header deadline (server counted %d)\n",
				o.slowloris, hc.slowClosed.Load(), ad.HeaderTimeouts)
			fmt.Printf("floods:    %d clients, %d attempts — %d served, %d refused; server rate-limited %d at accept\n",
				o.floods, hc.floodAttempts.Load(), hc.floodServed.Load(), hc.floodRefused.Load(), st.Ratelimited)
			fmt.Printf("admission: %d header-slot sheds, %d overload sheds\n", ad.HeaderSheds, ad.OverloadSheds)
		},
	}).finish()
}

// runSlowloris drips header bytes on fresh connections until the server
// cuts each one off, reconnecting until the window closes.
func runSlowloris(target string, src net.Addr, start, stop time.Time, hc *hostileCounters) {
	d := net.Dialer{LocalAddr: src, Timeout: 2 * time.Second}
	time.Sleep(time.Until(start))
	for time.Now().Before(stop) {
		conn, err := d.Dial("tcp", target)
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		conn.SetDeadline(stop.Add(5 * time.Second))
		alive := true
		if _, err := conn.Write([]byte("GET /drip HTTP/1.1\r\nX-Drip: ")); err != nil {
			alive = false
		}
		for alive && time.Now().Before(stop) {
			time.Sleep(100 * time.Millisecond)
			if _, err := conn.Write([]byte("y")); err != nil {
				alive = false
				break
			}
			// A successful read means the server answered (shed 503);
			// an error here is the cut we are waiting for.
			conn.SetReadDeadline(time.Now().Add(time.Millisecond))
			if _, err := conn.Read(make([]byte, 256)); err == nil {
				alive = false
			} else if nerr, ok := err.(net.Error); !ok || !nerr.Timeout() {
				alive = false
			}
			conn.SetReadDeadline(stop.Add(5 * time.Second))
		}
		if !alive {
			hc.slowClosed.Add(1)
		}
		conn.Close()
	}
}

// runFlood hammers connect/request/close from src (nil = default
// source) as fast as the server lets it, counting how many attempts got
// a 200 versus were refused — closed at accept by the rate limiter,
// shed with a 503, or still unanswered after the short patience window
// (a flood does not wait politely). Rate-limited connections are closed
// the instant they are accepted, so once the bucket empties the loop
// spins faster and faster against a closed door — the counters record
// the limiter absorbing an arrival rate it could never serve.
func runFlood(target string, src net.Addr, start, stop time.Time, hc *hostileCounters) {
	d := net.Dialer{LocalAddr: src, Timeout: 2 * time.Second}
	time.Sleep(time.Until(start))
	buf := make([]byte, 1024)
	for time.Now().Before(stop) {
		hc.floodAttempts.Add(1)
		conn, err := d.Dial("tcp", target)
		if err != nil {
			hc.floodRefused.Add(1)
			time.Sleep(5 * time.Millisecond)
			continue
		}
		conn.SetDeadline(time.Now().Add(25 * time.Millisecond))
		served := false
		if _, err := conn.Write(httpBenchRequest); err == nil {
			if n, rerr := conn.Read(buf); rerr == nil && bytes.Contains(buf[:n], []byte(" 200 ")) {
				served = true
			}
		}
		conn.Close()
		if served {
			hc.floodServed.Add(1)
		} else {
			hc.floodRefused.Add(1)
		}
	}
}

// loopbackSource returns the loopback alias 127.0.x.y as a dial source
// when the platform routes 127.0.0.0/8 (Linux does), nil otherwise —
// with nil the attacker shares the default source IP and its bucket.
func loopbackSource(x, y int) net.Addr {
	ip := net.IPv4(127, 0, byte(x), byte(y))
	probe, err := net.Listen("tcp", ip.String()+":0")
	if err != nil {
		return nil
	}
	probe.Close()
	return &net.TCPAddr{IP: ip}
}
