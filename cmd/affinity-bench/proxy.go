// The -proxy mode drives the full core-local edge: pipelined keep-alive
// clients → proxyaff reverse proxy → in-process httpaff backends, all
// over real loopback TCP. On top of the -http report it prints the
// upstream pool reuse rate — the proof that the outbound half of each
// request stayed on the worker that served the inbound half.
package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/proxyaff"
)

// runProxyBench builds the backend farm and the proxy edge, drives it
// with the -http client, and reports end-to-end req/s plus the upstream
// pool reuse breakdown.
func runProxyBench(o opts) error {
	if o.backends <= 0 {
		o.backends = 2
	}
	// Backend farm: plain httpaff servers answering o.payload bytes. They
	// keep their own fixed config; the transport flags shape the edge.
	body := bytes.Repeat([]byte("x"), o.payload)
	addrs := make([]string, 0, o.backends)
	backends := make([]*httpaff.Server, 0, o.backends)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, b := range backends {
			b.Shutdown(ctx)
		}
	}()
	for i := 0; i < o.backends; i++ {
		b, err := httpaff.New(httpaff.Config{
			Workers: 2,
			Handler: func(ctx *httpaff.RequestCtx) { ctx.Write(body) },
		})
		if err != nil {
			return err
		}
		b.Start()
		backends = append(backends, b)
		addrs = append(addrs, b.Addr().String())
	}

	policy := proxyaff.RoundRobin
	policyName := "round-robin"
	if o.pinned {
		policy = proxyaff.WorkerPinned
		policyName = "worker-pinned"
	}
	proxy, err := proxyaff.New(proxyaff.Config{
		Backends: addrs,
		Policy:   policy,
		Workers:  o.workers,
	})
	if err != nil {
		return err
	}
	defer proxy.Close()
	cfg := o.httpConfig(proxy.Serve)
	cfg.WorkerUpstream = proxy.PoolSnapshot
	front, err := httpaff.New(cfg)
	if err != nil {
		return err
	}
	front.Start()
	target := front.Addr().String()
	banner("proxyaff edge", front, o)
	fmt.Printf("upstream: %d backends (%s)\n", o.backends, policyName)

	h := newHarness(o.duration)
	driveHTTP(h, target, o, 0)
	return (&run{
		o: o, srv: front, h: h,
		title: fmt.Sprintf("PROXY — pipelined keep-alive through the edge (%d conns, %d reqs/batch, %dB body)",
			o.clients, o.pipeline, o.payload),
		rep: benchReport{Pipeline: o.pipeline, Backends: o.backends},
	}).finish()
}
