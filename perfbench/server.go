package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/proxyaff"
)

// serverWorkers is the front server's worker count: one per CPU of the
// 2-CPU machine the benchmark is sized for.
const serverWorkers = 2

// spanCap bounds each span buffer so a traced run never grows memory
// during the measured window.
const spanCap = 1 << 17

// serverProc is the server side of the benchmark: the stack under test,
// started in its own process and driven over loopback. It answers the
// load generator's control commands on stdin/stdout.
type serverProc struct {
	front    *httpaff.Server
	backends []*httpaff.Server
	proxy    *proxyaff.Proxy
	bufs     []*spanBuf // nil unless tracing
}

// serverMain runs the server process: "perfbench server -workload W
// -seed N [-trace]". It answers one line per command on stdin: "snap"
// (a serverSnap), "cpu" (the process's CPU microseconds, a cheap
// once-a-second read), "owner PORT", "spans", and "quit".
func serverMain(args []string) int {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload whose server to run")
	seed := fs.Int64("seed", 1, "seed the response bodies derive from")
	trace := fs.Bool("trace", false, "record handler spans for requests that carry the trace header")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := startServer(*workload, *seed, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench server:", err)
		return 1
	}
	out := bufio.NewWriter(os.Stdout)
	reply := func(v any) {
		b, _ := json.Marshal(v)
		out.Write(b)
		out.WriteByte('\n')
		out.Flush()
	}
	reply(map[string]any{
		"addr":       sp.front.Addr().String(),
		"groups":     sp.front.FlowGroups(),
		"workers":    sp.front.Workers(),
		"sharded":    sp.front.Sharded(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	})
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd := strings.Fields(in.Text())
		if len(cmd) == 0 {
			continue
		}
		switch cmd[0] {
		case "snap":
			reply(sp.snapshot())
		case "cpu":
			cpu, _, _ := rusageSelf()
			reply(cpu)
		case "owner":
			port, _ := strconv.Atoi(cmd[1])
			reply(sp.front.OwnerOf(uint16(port)))
		case "spans":
			var all []span
			dropped := 0
			for _, b := range sp.bufs {
				b.mu.Lock()
				all = append(all, b.spans...)
				dropped += b.dropped
				b.mu.Unlock()
			}
			reply(dropped)
			if err := writeSpans(out, all); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench server: write spans:", err)
				return 1
			}
		case "quit":
			sp.shutdown()
			return 0
		}
	}
	sp.shutdown()
	return 0
}

// startServer builds and starts the workload's server stack on
// loopback ports the kernel picks.
func startServer(workload string, seed int64, trace bool) (*serverProc, error) {
	w, ok := workloadByName(workload)
	if !ok {
		return nil, fmt.Errorf("no server for workload %q", workload)
	}
	bodies := makeBodies(w, seed)
	sp := &serverProc{}
	newBuf := func() *spanBuf {
		if !trace {
			return nil
		}
		b := newSpanBuf(spanCap)
		sp.bufs = append(sp.bufs, b)
		return b
	}
	if !w.proxied {
		front, err := httpaff.New(httpaff.Config{
			Addr:             "127.0.0.1:0",
			Workers:          serverWorkers,
			Handler:          bodyRouter(bodies, newBuf(), kindHandler),
			DisableMigration: w.pinned,
		})
		if err != nil {
			return nil, err
		}
		sp.front = front
		front.Start()
		return sp, nil
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		// One worker per backend: the proxy's upstream connections pick
		// kernel source ports, so a single worker keeps the backend's
		// placement independent of them.
		b, err := httpaff.New(httpaff.Config{
			Addr:             "127.0.0.1:0",
			Workers:          1,
			Handler:          bodyRouter(bodies, newBuf(), kindBackend),
			DisableMigration: true,
		})
		if err != nil {
			sp.shutdown()
			return nil, err
		}
		b.Start()
		sp.backends = append(sp.backends, b)
		addrs = append(addrs, b.Addr().String())
	}
	p, err := proxyaff.New(proxyaff.Config{Backends: addrs, Policy: proxyaff.WorkerPinned, Workers: serverWorkers})
	if err != nil {
		sp.shutdown()
		return nil, err
	}
	sp.proxy = p
	handler := p.Serve
	if buf := newBuf(); buf != nil {
		handler = spanHandler(buf, kindProxyServe, p.Serve)
	}
	front, err := httpaff.New(httpaff.Config{
		Addr:             "127.0.0.1:0",
		Workers:          serverWorkers,
		Handler:          handler,
		WorkerUpstream:   p.PoolSnapshot,
		DisableMigration: true,
	})
	if err != nil {
		sp.shutdown()
		return nil, err
	}
	sp.front = front
	front.Start()
	return sp, nil
}

// bodyRouter serves bodies[i] at pathOf(i), recording a span of kind
// around each handler call when buf is non-nil.
func bodyRouter(bodies [][]byte, buf *spanBuf, kind uint8) httpaff.HandlerFunc {
	r := httpaff.NewRouter()
	for i, body := range bodies {
		h := func(ctx *httpaff.RequestCtx) { ctx.Write(body) }
		if buf != nil {
			h = spanHandler(buf, kind, h)
		}
		r.Handle(pathOf(i), h)
	}
	return r.Serve
}

// spanHandler wraps h with a span around the call for requests that
// carry the trace header. A front span's parent is the client's root
// span; a backend's parent is the proxy span of the same request.
func spanHandler(buf *spanBuf, kind uint8, h httpaff.HandlerFunc) httpaff.HandlerFunc {
	return func(ctx *httpaff.RequestCtx) {
		trace, k, ok := parseTraceHeader(ctx.Header(traceHeader))
		if !ok {
			h(ctx)
			return
		}
		start := time.Now().UnixNano()
		h(ctx)
		s := span{Kind: kind, Trace: trace, ID: frontID(k), Parent: rootID, Start: start, End: time.Now().UnixNano()}
		if kind == kindBackend {
			s.ID, s.Parent = backendID(k), frontID(k)
		}
		buf.add(s)
	}
}

// serverSnap is one point-in-time reading of the server process: the
// front server's transport counters and service-latency quantiles, the
// pools' counters, the backends' service medians and the process's
// rusage.
type serverSnap struct {
	Accepted, Served, ServedLocal, ServedStolen uint64
	Dropped, Requeued, Migrations               uint64
	ArenaGets, ArenaReuses                      uint64
	UpstreamGets, UpstreamReuses                uint64
	SvcP50, SvcP99                              int64 // ns, since start
	BackendSvcP50                               int64 // ns, mean over backends
	CPUUs                                       int64 // user + system
	Ctxsw                                       int64 // voluntary + involuntary
	MaxRSSKB                                    int64
}

func (sp *serverProc) snapshot() serverSnap {
	st := sp.front.Stats()
	q := sp.front.ServiceLatencyQuantiles(0.5, 0.99)
	s := serverSnap{
		Accepted: st.Accepted, Served: st.Served, ServedLocal: st.ServedLocal, ServedStolen: st.ServedStolen,
		Dropped: st.Dropped, Requeued: st.Requeued, Migrations: st.Migrations,
		ArenaGets: st.Pool.Gets(), ArenaReuses: st.Pool.Reuses,
		SvcP50: int64(q[0]), SvcP99: int64(q[1]),
	}
	if sp.proxy != nil {
		ps := sp.proxy.Stats()
		s.UpstreamGets, s.UpstreamReuses = ps.Pool.Gets(), ps.Pool.Reuses
	}
	for _, b := range sp.backends {
		s.BackendSvcP50 += int64(b.ServiceLatencyQuantiles(0.5)[0]) / int64(len(sp.backends))
	}
	s.CPUUs, s.Ctxsw, s.MaxRSSKB = rusageSelf()
	return s
}

// shutdown stops the servers within a short grace period; the process
// exits right after, so connections still open are simply dropped.
func (sp *serverProc) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if sp.front != nil {
		sp.front.Shutdown(ctx)
	}
	if sp.proxy != nil {
		sp.proxy.Close()
	}
	for _, b := range sp.backends {
		b.Shutdown(ctx)
	}
}
