package httpaff

import (
	"fmt"
	"io"
	"strings"
)

// AdmissionStats snapshots the HTTP layer's admission-policy counters;
// the transport-level half (per-IP rate limiting, the connection
// budget) lives in serve.Stats.
type AdmissionStats struct {
	// InflightHeaders is the instantaneous number of workers blocked
	// reading a fresh connection's first request head.
	InflightHeaders int64
	// HeaderTimeouts counts request heads cut off at their read
	// deadline (the slowloris defense firing); HeaderSheds counts
	// fresh connections 503'd over MaxInflightHeaders; OverloadSheds
	// counts fresh connections 503'd while every worker was busy.
	HeaderTimeouts uint64
	HeaderSheds    uint64
	OverloadSheds  uint64
	// Workers is the per-worker breakdown of the three counters above.
	Workers []WorkerAdmission
}

// WorkerAdmission is one worker's admission counters.
type WorkerAdmission struct {
	HeaderTimeouts uint64
	HeaderSheds    uint64
	OverloadSheds  uint64
}

// Admission snapshots the per-worker admission counters.
func (s *Server) Admission() AdmissionStats {
	st := AdmissionStats{
		InflightHeaders: s.inflightHeaders.Load(),
		Workers:         make([]WorkerAdmission, len(s.admitw)),
	}
	for i := range s.admitw {
		w := &s.admitw[i]
		st.Workers[i] = WorkerAdmission{
			HeaderTimeouts: w.headerTimeouts.Load(),
			HeaderSheds:    w.headerSheds.Load(),
			OverloadSheds:  w.overloadSheds.Load(),
		}
		st.HeaderTimeouts += st.Workers[i].HeaderTimeouts
		st.HeaderSheds += st.Workers[i].HeaderSheds
		st.OverloadSheds += st.Workers[i].OverloadSheds
	}
	return st
}

// MetricsHandler returns a handler serving the server's counters in
// Prometheus text exposition format — the machine-scrapeable sibling of
// StatsHandler's JSON. It takes the httpaff Server (not just the
// transport) because the shed/ratelimit/deadline story spans both
// layers: the transport contributes accept-time admission (per-IP rate
// limiting, the connection budget, fd-pressure shedding), event-plane
// counters, evloop and clock-lag gauges, and the park/steal/migrate
// histograms; the HTTP layer contributes header-deadline and
// 503-backpressure counters plus the request latency/size histograms.
// Layers stacked above (proxyaff's upstream exchange histograms, wsaff's
// frame counters) compose in through extras — each is invoked in order
// and appends its own series, so one scrape endpoint covers the whole
// stack without a registry. Mount it on a Router path (conventionally
// "/metrics"); like StatsHandler it is diagnostic, not hot-path, and
// allocates.
func MetricsHandler(srv *Server, extras ...func(io.Writer)) HandlerFunc {
	return func(ctx *RequestCtx) {
		var b strings.Builder
		st := srv.Stats()
		ad := srv.Admission()

		fmt.Fprintf(&b, "# HELP affinity_workers Configured worker (and on Linux, listener) count.\n# TYPE affinity_workers gauge\naffinity_workers %d\n", len(st.Workers))
		fmt.Fprintf(&b, "# HELP affinity_served_total Handler passes served, by worker and queue the pass was popped from.\n# TYPE affinity_served_total counter\n")
		for _, w := range st.Workers {
			fmt.Fprintf(&b, "affinity_served_total{worker=\"%d\",queue=\"local\"} %d\n", w.Worker, w.ServedLocal)
			fmt.Fprintf(&b, "affinity_served_total{worker=\"%d\",queue=\"stolen\"} %d\n", w.Worker, w.ServedStolen)
		}
		fmt.Fprintf(&b, "# HELP affinity_accepted_total Connections routed at accept time, by accepting worker.\n# TYPE affinity_accepted_total counter\n")
		for _, w := range st.Workers {
			fmt.Fprintf(&b, "affinity_accepted_total{worker=\"%d\"} %d\n", w.Worker, w.Accepted)
		}
		fmt.Fprintf(&b, "# HELP affinity_queue_depth Instantaneous per-worker queue depth.\n# TYPE affinity_queue_depth gauge\n")
		for _, w := range st.Workers {
			fmt.Fprintf(&b, "affinity_queue_depth{worker=\"%d\"} %d\n", w.Worker, w.QueueDepth)
		}
		fmt.Fprintf(&b, "# HELP affinity_worker_busy Whether each worker is over its sec 3.3.1 busy watermark (1) or not (0).\n# TYPE affinity_worker_busy gauge\n")
		for _, w := range st.Workers {
			busy := 0
			if w.Busy {
				busy = 1
			}
			fmt.Fprintf(&b, "affinity_worker_busy{worker=\"%d\"} %d\n", w.Worker, busy)
		}
		fmt.Fprintf(&b, "# HELP affinity_dropped_total Connections shed on queue overflow.\n# TYPE affinity_dropped_total counter\naffinity_dropped_total %d\n", st.Dropped)
		fmt.Fprintf(&b, "# HELP affinity_parked Keep-alive connections parked between requests.\n# TYPE affinity_parked gauge\naffinity_parked %d\n", st.Parked)
		fmt.Fprintf(&b, "# HELP affinity_requeued_total Successful keep-alive requeues.\n# TYPE affinity_requeued_total counter\naffinity_requeued_total %d\n", st.Requeued)
		fmt.Fprintf(&b, "# HELP affinity_migrations_total Applied flow-group migrations.\n# TYPE affinity_migrations_total counter\naffinity_migrations_total %d\n", st.Migrations)

		// Admission control: the transport half...
		fmt.Fprintf(&b, "# HELP affinity_ratelimited_total Connections closed at accept by the per-IP token buckets.\n# TYPE affinity_ratelimited_total counter\naffinity_ratelimited_total %d\n", st.Ratelimited)
		fmt.Fprintf(&b, "# HELP affinity_shed_parked_total Parked connections closed LIFO to reclaim descriptors or budget.\n# TYPE affinity_shed_parked_total counter\naffinity_shed_parked_total %d\n", st.ShedParked)
		fmt.Fprintf(&b, "# HELP affinity_budget_rejected_total Connections rejected with the budget exhausted and nothing parked.\n# TYPE affinity_budget_rejected_total counter\naffinity_budget_rejected_total %d\n", st.BudgetRejected)
		fmt.Fprintf(&b, "# HELP affinity_accept_retries_total Transient accept errors survived (EMFILE/ENFILE/ECONNABORTED).\n# TYPE affinity_accept_retries_total counter\naffinity_accept_retries_total %d\n", st.AcceptRetries)
		fmt.Fprintf(&b, "# HELP affinity_live_conns Connections charged against the budget right now (0 when MaxConns unset).\n# TYPE affinity_live_conns gauge\naffinity_live_conns %d\n", st.Live)
		fmt.Fprintf(&b, "# HELP affinity_live_conns_peak High-water mark of affinity_live_conns; never exceeds the budget.\n# TYPE affinity_live_conns_peak gauge\naffinity_live_conns_peak %d\n", st.LivePeak)
		fmt.Fprintf(&b, "# HELP affinity_conn_budget Configured connection budget (0 = unlimited).\n# TYPE affinity_conn_budget gauge\naffinity_conn_budget %d\n", st.MaxConns)

		// ...and the HTTP half, per worker.
		fmt.Fprintf(&b, "# HELP affinity_inflight_headers Workers blocked reading a fresh connection's first request head.\n# TYPE affinity_inflight_headers gauge\naffinity_inflight_headers %d\n", ad.InflightHeaders)
		fmt.Fprintf(&b, "# HELP affinity_header_timeouts_total Request heads cut off at the header read deadline (slowloris defense).\n# TYPE affinity_header_timeouts_total counter\n")
		for i, w := range ad.Workers {
			fmt.Fprintf(&b, "affinity_header_timeouts_total{worker=\"%d\"} %d\n", i, w.HeaderTimeouts)
		}
		fmt.Fprintf(&b, "# HELP affinity_header_sheds_total Fresh connections 503'd over MaxInflightHeaders.\n# TYPE affinity_header_sheds_total counter\n")
		for i, w := range ad.Workers {
			fmt.Fprintf(&b, "affinity_header_sheds_total{worker=\"%d\"} %d\n", i, w.HeaderSheds)
		}
		fmt.Fprintf(&b, "# HELP affinity_overload_sheds_total Fresh connections 503'd while every worker was over its busy watermark.\n# TYPE affinity_overload_sheds_total counter\n")
		for i, w := range ad.Workers {
			fmt.Fprintf(&b, "affinity_overload_sheds_total{worker=\"%d\"} %d\n", i, w.OverloadSheds)
		}
		fmt.Fprintf(&b, "# HELP affinity_pool_reuses_total Worker-arena request contexts served from the local free list.\n# TYPE affinity_pool_reuses_total counter\n")
		for _, w := range st.Workers {
			fmt.Fprintf(&b, "affinity_pool_reuses_total{worker=\"%d\"} %d\n", w.Worker, w.Pool.Reuses)
		}

		// Observability plane: request histograms (this layer), then the
		// transport's event/evloop/latency series, then stacked layers.
		srv.WriteObsMetrics(&b)
		srv.srv.WriteObsMetrics(&b)
		for _, extra := range extras {
			extra(&b)
		}

		ctx.SetContentType("text/plain; version=0.0.4; charset=utf-8")
		ctx.WriteString(b.String())
	}
}
