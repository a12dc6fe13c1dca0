// The -http mode drives the httpaff layer — pipelined keep-alive
// HTTP/1.1 over loopback — and reports throughput, latency, the
// locality/steal/migration table, and the worker-local pool reuse rate
// that proves request memory stayed core-local.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/serve"
)

// runHTTPBench starts an httpaff server, drives it with pipelined
// keep-alive clients, and prints the combined transport + pool report.
func runHTTPBench(o opts) error {
	body := bytes.Repeat([]byte("x"), o.payload)
	// The bench handler is mounted on a router alongside the unified
	// metrics and event endpoints, so a scraper can hit the same server
	// the load runs against — the production shape, not a side server.
	var srv *httpaff.Server
	r := httpaff.NewRouter()
	r.Handle("/bench", func(ctx *httpaff.RequestCtx) {
		ctx.Write(body)
	})
	r.Handle("/metrics", func(ctx *httpaff.RequestCtx) {
		httpaff.MetricsHandler(srv)(ctx)
	})
	r.Handle("/debug/events", func(ctx *httpaff.RequestCtx) {
		httpaff.EventsHandler(srv)(ctx)
	})
	r.Handle("/debug/flows", func(ctx *httpaff.RequestCtx) {
		httpaff.FlowsHandler(srv, httpaff.FlowsConfig{})(ctx)
	})
	r.Handle("/debug/trace", func(ctx *httpaff.RequestCtx) {
		httpaff.TraceHandler(srv)(ctx)
	})
	srv, err := httpaff.New(o.httpConfig(r.Serve))
	if err != nil {
		return err
	}
	srv.Start()
	target := srv.Addr().String()
	banner("httpaff", srv, o)

	h := newHarness(o.duration)
	var scrapes uint64
	scrapeDone := make(chan struct{})
	if o.scrapeEvery > 0 {
		go func() {
			defer close(scrapeDone)
			scrapes = scrapeLoop(target, o.scrapeEvery, h.stop)
		}()
	} else {
		close(scrapeDone)
	}
	driveHTTP(h, target, o, 0)
	<-scrapeDone

	return (&run{
		o: o, srv: srv, h: h,
		title: fmt.Sprintf("HTTP — pipelined keep-alive over loopback (%d conns, %d reqs/batch, %dB body)",
			o.clients, o.pipeline, o.payload),
		rep: benchReport{Pipeline: o.pipeline, Scrapes: scrapes},
		detail: func(st serve.Stats, rep *benchReport) {
			// Server-side service latency, from the workers' own
			// histograms: head-read start to response flush, no client
			// or loopback time.
			q := srv.ServiceLatencyQuantiles(0.5, 0.99, 0.999)
			fmt.Printf("server-side service latency: p50 %v  p99 %v  p999 %v\n", q[0], q[1], q[2])
			rep.SrvP50us = float64(q[0].Nanoseconds()) / 1e3
			rep.SrvP99us = float64(q[1].Nanoseconds()) / 1e3
			rep.SrvP999us = float64(q[2].Nanoseconds()) / 1e3
			if o.scrapeEvery > 0 {
				fmt.Printf("scraper: %d /metrics + /debug/events fetches at %v period during the run\n", scrapes, o.scrapeEvery)
			}
		},
	}).finish()
}

var httpBenchRequest = []byte("GET /bench HTTP/1.1\r\nHost: bench\r\nUser-Agent: affinity-bench\r\n\r\n")

// scrapeLoop fetches /metrics and /debug/events on one keep-alive
// connection at the given period until the deadline, mimicking a
// Prometheus scraper running against a loaded server. Returns the
// number of completed scrape rounds (both endpoints fetched).
func scrapeLoop(target string, every time.Duration, stop time.Time) uint64 {
	conn, err := net.Dial("tcp", target)
	if err != nil {
		return 0
	}
	defer conn.Close()
	conn.SetDeadline(stop.Add(30 * time.Second))
	br := bufio.NewReaderSize(conn, 64<<10)
	var rounds uint64
	for time.Now().Before(stop) {
		for _, path := range []string{"/metrics", "/debug/events"} {
			if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: bench\r\nUser-Agent: affinity-scrape\r\n\r\n", path); err != nil {
				return rounds
			}
			if err := discardResponse(br); err != nil {
				return rounds
			}
		}
		rounds++
		time.Sleep(every)
	}
	return rounds
}

// discardResponse reads one Content-Length-framed response off br.
func discardResponse(br *bufio.Reader) error {
	var length int
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			if length, err = strconv.Atoi(v); err != nil {
				return err
			}
		}
	}
	_, err := io.CopyN(io.Discard, br, int64(length))
	return err
}

// learnResponseLen performs one exchange and returns the (fixed)
// response length, so the batch loop can read with exact ReadFulls
// instead of parsing every response. Any answer but a 200 (a shed 503
// from a hardened server) is an error.
func learnResponseLen(conn net.Conn) (int, error) {
	if _, err := conn.Write(httpBenchRequest); err != nil {
		return 0, err
	}
	cr := &countingReader{r: conn}
	br := bufio.NewReader(cr)
	if status, err := br.ReadSlice('\n'); err != nil {
		return 0, err
	} else if !bytes.HasPrefix(status, []byte("HTTP/1.1 200 ")) {
		return 0, fmt.Errorf("first response: %q", status)
	}
	if err := discardResponse(br); err != nil {
		return 0, err
	}
	return cr.n - br.Buffered(), nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// driveHTTP runs o.clients closed-loop pipelined keep-alive clients,
// logging per-request latency as batch RTT divided by depth. Each client
// first learns the fixed response length with one exchange. A client
// whose first exchange fails redials up to retries times before it
// counts a failure: -hostile passes 20, because a well-behaved client
// whose first pass loses a header slot to the startup thundering herd
// redials, and a shed 503 with Retry-After is the admission mechanism
// working, not a failure. Every other mode passes 0.
func driveHTTP(h *harness, target string, o opts, retries int) {
	for i := 0; i < o.clients; i++ {
		h.spawn(func(c *client) {
			var conn net.Conn
			var respLen int
			for attempt := 0; ; attempt++ {
				nc, err := net.Dial("tcp", target)
				if err == nil {
					nc.SetDeadline(time.Now().Add(o.duration + 30*time.Second))
					if respLen, err = learnResponseLen(nc); err == nil {
						conn = nc
						break
					}
					nc.Close() // shed at the door
				}
				if attempt == retries || !c.live() {
					c.failed.Add(1)
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
			defer conn.Close()
			c.reqs.Add(1)
			batch := bytes.Repeat(httpBenchRequest, o.pipeline)
			resp := make([]byte, respLen*o.pipeline)
			c.loop(o.pipeline, func() error { return roundTrip(conn, batch, resp) })
		})
	}
}
