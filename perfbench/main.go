// Command perfbench is the repository's benchmark. It runs one named
// workload against the real serving stack, started in a separate
// server process and driven over loopback by this process, and prints
// every metric by name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics from a separate traced run. The same
// seed gives the same inputs: response bodies, request paths, and the
// flow group, hence the worker, of every connection. perfbench/run.py
// builds it from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// clientProcs is the load generator's GOMAXPROCS: the 2 CPUs the
// benchmark is sized for, with at most 2 connections open at once.
const clientProcs = 2

// The metric catalog: every name a run reports, with its unit. A
// --trace 0 run reports exactly endToEnd, a --trace 1 run exactly
// perLayer; layer metrics a workload does not exercise read 0.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"server_cpu_us_per_req", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"serve.accepts_per_s", "1/s"},
	{"serve.served", "count"},
	{"serve.local_ratio", "ratio"},
	{"serve.stolen_ratio", "ratio"},
	{"serve.migrations", "count"},
	{"serve.requeues_per_req", "ratio"},
	{"serve.dropped", "count"},
	{"server.ctxsw_per_req", "ratio"},
	{"client.requests", "count"},
	{"client.self_p50_us", "us"},
	{"httpaff.service_p50_us", "us"},
	{"httpaff.service_p99_us", "us"},
	{"httpaff.wait_p50_us", "us"},
	{"httpaff.handler_p50_us", "us"},
	{"httpaff.self_p50_us", "us"},
	{"httpaff.arena_reuse_ratio", "ratio"},
	{"proxyaff.serve_p50_us", "us"},
	{"proxyaff.serve_p99_us", "us"},
	{"proxyaff.serve_self_p50_us", "us"},
	{"proxyaff.backend_service_p50_us", "us"},
	{"proxyaff.upstream_wait_p50_us", "us"},
	{"proxyaff.upstream_reuse_ratio", "ratio"},
	{"core.route_ns", "ns"},
	{"obs.hist_record_ns", "ns"},
	{"sim.run_s", "s"},
	{"sim.alloc_mb_per_run", "MB"},
	{"sim.gc_per_run", "count"},
	{"trace.throughput_rps", "1/s"},
	{"trace.untraced_throughput_rps", "1/s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

type metricDef struct{ name, unit string }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "server" {
		os.Exit(serverMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Int("seconds", 10, "measured window, seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(clientProcs)
	res, err := runHTTP(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	catalog := endToEnd
	if *trace == 1 {
		catalog = perLayer
	}
	line, err := res.render(w.name, catalog, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// render prints the human-readable report and returns the result line.
// It reports every catalog metric and fails on a measured metric missing
// from the catalog. A layer metric the run did not measure reads 0 (the
// workload does not exercise that layer); a missing end-to-end metric
// is an error.
func (res *result) render(workload string, catalog []metricDef, layers bool) (string, error) {
	fmt.Printf("perfbench %s\n", workload)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	got := map[string]metric{}
	for _, m := range res.metrics {
		got[m.name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range catalog {
		m, ok := got[d.name]
		if !ok && !layers {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if !ok {
			m = metric{name: d.name, unit: d.unit, note: "not exercised by this workload"}
		}
		if m.unit != d.unit {
			return "", fmt.Errorf("metric %s measured in %s, catalog says %s", d.name, m.unit, d.unit)
		}
		delete(got, d.name)
		out[d.name] = value{m.value, m.unit}
		fmt.Printf("  %-34s %14.4f %-6s %s\n", d.name, m.value, m.unit, m.note)
	}
	for n := range got {
		return "", fmt.Errorf("metric %s is not in the catalog", n)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	return string(b), err
}
