// Command affinity-bench regenerates the paper's tables and figures,
// and can also drive the real serving stack over loopback.
//
// Usage:
//
//	affinity-bench -list
//	affinity-bench F2 T2          # run selected experiments
//	affinity-bench -quick -all    # reduced sweeps, everything
//
//	affinity-bench -serve                  # real-server loopback benchmark
//	affinity-bench -serve -stall 2         # stall worker 0: show stealing
//	affinity-bench -serve -longlived 24    # skewed keep-alive workload:
//	                                       # flow-group migration (§3.3.2)
//	affinity-bench -serve -longlived 24 -migrate=false   # stealing only
//	affinity-bench -client host:port       # drive an external server
//	affinity-bench -serve -json BENCH_ci.json            # append a JSON record
//
//	affinity-bench -http                   # httpaff: pipelined keep-alive HTTP/1.1
//	affinity-bench -http -pipeline 32 -clients 16        # deeper pipelines
//	affinity-bench -http -migrate=false                  # without §3.3.2 migration
//
//	affinity-bench -proxy                  # proxyaff edge: client → proxy → backends
//	affinity-bench -proxy -backends 4 -pinned=false      # round-robin over 4 backends
//	affinity-bench -proxy -migrate=false                 # edge without §3.3.2 migration
//
//	affinity-bench -ws                     # wsaff: skewed long-lived WebSocket echo
//	affinity-bench -ws -clients 16 -held 1000            # plus 1000 idle held-open sockets
//	affinity-bench -ws -broadcast-every 50ms             # plus broadcast fan-out load
//	affinity-bench -ws -migrate=false                    # without §3.3.2 migration
//
//	affinity-bench -hostile                # admission control under attack:
//	                                       # normal clients + slowloris + floods
//	affinity-bench -hostile -slowloris 16 -floods 8      # heavier attack
//
// The transport flags (-addr -workers -noshard -groups -migrate
// -migrate-interval -chips -distance-aware -adaptive -pin) and -trace
// apply to every server mode: -serve, -http, -proxy, -ws and -hostile.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"affinityaccept"
)

// opts holds every flag value; each flag binds straight into it.
type opts struct {
	list, all, quick bool
	seed             int64

	serve    bool
	client   string // external target; empty = built-in loopback server
	addr     string
	workers  int
	clients  int
	reqs     int // requests per connection (-serve echo)
	payload  int // request/response payload bytes
	duration time.Duration
	stallMS  float64 // artificial per-connection stall on worker 0
	noShard  bool    // force the single-shared-listener fallback

	http     bool
	pipeline int // requests per pipelined batch

	proxy    bool
	backends int  // in-process backend servers
	pinned   bool // worker-pinned backend selection (vs round-robin)

	hostile   bool
	slowloris int           // concurrent header-dripping clients
	floods    int           // concurrent per-IP connect-flood clients
	ipRate    float64       // per-IP accept rate (conns/sec/bucket)
	ipBurst   int           // per-IP accept burst (0 = 2x clients)
	maxConns  int           // transport connection budget
	headerTO  time.Duration // header read deadline

	ws             bool
	held           int           // held-open idle subscribed connections
	broadcastEvery time.Duration // publish period (0 = no broadcasts)
	scenarioName   string        // overrides the recorded scenario name

	longlived    int           // long-lived skewed connections (0 = short-lived echo)
	hotWorkers   int           // workers whose groups receive the skew (<=1 = worker 0 only)
	work         time.Duration // per-request handler service time
	migrate      bool          // run the §3.3.2 migration loop
	migrateEvery time.Duration // migration tick (0 = paper default)
	groups       int           // flow-group count (0 = default)
	scrapeEvery  time.Duration // -http: concurrent /metrics scraper period
	tracePath    string        // save a Chrome trace-event file here
	chips        int           // simulated chip count for NUMA attribution
	distAware    bool          // order steal victims same-chip-first (chips > 1)
	adaptive     bool          // adaptive migration interval + ping-pong freezing
	pin          bool          // sched_setaffinity each worker thread to a CPU
	jsonPath     string        // append metrics to this JSON array file
	cpuprofile   string
}

// bind declares every flag on fs, bound to a field of o.
func (o *opts) bind(fs *flag.FlagSet) {
	fs.BoolVar(&o.list, "list", false, "list available experiments")
	fs.BoolVar(&o.all, "all", false, "run every experiment")
	fs.BoolVar(&o.quick, "quick", false, "reduced sweeps and windows")
	fs.Int64Var(&o.seed, "seed", 42, "simulation seed")

	fs.BoolVar(&o.serve, "serve", false, "benchmark the real serve.Server over loopback")
	fs.StringVar(&o.client, "client", "", "drive an external server at host:port instead of starting one")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address of the server under test (every server mode)")
	fs.IntVar(&o.workers, "workers", 0, "worker count of the server under test (0 = GOMAXPROCS, at least 2)")
	fs.IntVar(&o.clients, "clients", 32, "concurrent load-generator connections")
	fs.IntVar(&o.reqs, "reqs", 6, "requests per connection (paper's reuse: 6)")
	fs.IntVar(&o.payload, "payload", 64, "request/response payload bytes")
	fs.DurationVar(&o.duration, "duration", 2*time.Second, "load-generation window")
	fs.Float64Var(&o.stallMS, "stall", 0, "stall worker 0 this many ms per connection (demonstrates stealing)")
	fs.BoolVar(&o.noShard, "noshard", false, "force the shared-listener fallback instead of SO_REUSEPORT")

	fs.BoolVar(&o.http, "http", false, "benchmark the httpaff HTTP/1.1 layer with pipelined keep-alive clients")
	fs.IntVar(&o.pipeline, "pipeline", 16, "requests per pipelined batch in -http/-proxy/-hostile mode")

	fs.BoolVar(&o.proxy, "proxy", false, "benchmark the proxyaff edge: clients → reverse proxy → in-process backends")
	fs.IntVar(&o.backends, "backends", 2, "in-process backend servers in -proxy mode")
	fs.BoolVar(&o.pinned, "pinned", true, "worker-pinned backend selection in -proxy mode (false = round-robin)")

	fs.BoolVar(&o.hostile, "hostile", false, "benchmark admission control: the -http workload plus slowloris and per-IP flood attackers against a hardened server")
	fs.IntVar(&o.slowloris, "slowloris", 8, "header-dripping attacker connections in -hostile mode")
	fs.IntVar(&o.floods, "floods", 3, "per-IP connect-flood attackers in -hostile mode")
	fs.Float64Var(&o.ipRate, "ip-rate", 5, "per-IP accept rate (conns/sec per bucket) in -hostile mode")
	fs.IntVar(&o.ipBurst, "ip-burst", 0, "per-IP accept burst in -hostile mode (0 = 2x -clients)")
	fs.IntVar(&o.maxConns, "maxconns", 256, "transport connection budget in -hostile mode")
	fs.DurationVar(&o.headerTO, "header-timeout", 500*time.Millisecond, "header read deadline in -hostile mode")

	fs.BoolVar(&o.ws, "ws", false, "benchmark the wsaff WebSocket layer: skewed long-lived echo connections, optional held-open and broadcast load")
	fs.IntVar(&o.held, "held", 0, "held-open idle subscribed WebSocket connections in -ws mode")
	fs.DurationVar(&o.broadcastEvery, "broadcast-every", 0, "publish a broadcast at this period in -ws mode (0 = off)")
	fs.StringVar(&o.scenarioName, "scenario", "", "override the scenario name recorded in the -json report")

	fs.IntVar(&o.longlived, "longlived", 0, "drive N long-lived keep-alive connections skewed onto worker 0's flow groups (demonstrates §3.3.2 migration)")
	fs.IntVar(&o.hotWorkers, "hot-workers", 1, "spread the -longlived and -ws skew over this many workers, one per chip first (the distance-aware A/B needs a hot victim on each chip)")
	fs.DurationVar(&o.work, "work", 200*time.Microsecond, "per-request handler service time in -longlived and -ws mode")
	fs.BoolVar(&o.migrate, "migrate", true, "enable the flow-group migration loop")
	fs.DurationVar(&o.migrateEvery, "migrate-interval", 0, "migration tick (0 = the paper's 100ms)")
	fs.IntVar(&o.groups, "groups", 0, "flow-group count (0 = the paper's 4096; -longlived and -ws default to 64)")
	fs.DurationVar(&o.scrapeEvery, "scrape-every", 0, "in -http mode, fetch /metrics and /debug/events at this period during the run (0 = no scraper)")
	fs.StringVar(&o.tracePath, "trace", "", "save the run's control-plane timeline as a Chrome trace-event file (load in chrome://tracing or Perfetto); every server mode")
	fs.IntVar(&o.chips, "chips", 0, "simulated chip count for the NUMA attribution pass (0 or 1 = flat single-chip)")
	fs.BoolVar(&o.distAware, "distance-aware", true, "order steal victims same-chip-first when -chips > 1 (false = the distance-blind wraparound scan)")
	fs.BoolVar(&o.adaptive, "adaptive", false, "adaptive migration: back the tick interval off once locality converges, freeze ping-ponging flow groups")
	fs.BoolVar(&o.pin, "pin", false, "pin each worker's OS thread to a CPU via sched_setaffinity (degrades to unpinned where unsupported)")
	fs.StringVar(&o.jsonPath, "json", "", "append this run's metrics to a JSON array file (e.g. BENCH_ci.json)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
}

func main() {
	var o opts
	o.bind(flag.CommandLine)
	flag.Parse()
	if err := execute(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// execute runs one invocation: a loopback benchmark when a server mode
// or -client is set, otherwise the selected simulator experiments.
func execute(o opts, ids []string) error {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.serve || o.client != "" || o.http || o.proxy || o.ws || o.hostile {
		return runBench(o)
	}
	if o.list {
		for _, id := range affinityaccept.Experiments() {
			fmt.Printf("%-4s %s\n", id, affinityaccept.DescribeExperiment(id))
		}
		return nil
	}
	if o.all || len(ids) == 0 {
		ids = affinityaccept.Experiments()
	}
	opt := affinityaccept.Options{Quick: o.quick, Seed: o.seed}
	for _, id := range ids {
		start := time.Now()
		res, err := affinityaccept.RunExperiment(id, opt)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("(%s took %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	return nil
}

// runBench applies the defaults every loopback mode shares and runs the
// selected one; when several mode flags are set, the first of -hostile,
// -ws, -proxy, -http wins, then -serve/-client.
func runBench(o opts) error {
	if o.workers <= 0 {
		o.workers = max(runtime.GOMAXPROCS(0), 2) // stealing needs someone to steal from
	}
	if o.pipeline <= 0 {
		o.pipeline = 16
	}
	if (o.ws || o.longlived > 0) && o.groups == 0 {
		// A compact table keeps the skew legible — worker 0 owns
		// groups/workers of them and the report shows whole groups
		// moving — while 64 groups is still fine-grained enough for
		// migration to spread the hot groups evenly over the claimants.
		o.groups = 64
	}
	switch {
	case o.hostile:
		return runHostileBench(o)
	case o.ws:
		return runWSBench(o)
	case o.proxy:
		return runProxyBench(o)
	case o.http:
		return runHTTPBench(o)
	default:
		return runServeBench(o)
	}
}

// scenario names the run for reports and the JSON trajectory file.
// -scenario overrides it: CI records the held-socket -ws run as
// "ws-held" so trend tooling keyed on "ws-echo" keeps reading the
// echo-throughput runs.
func (o opts) scenario() string {
	migr := func(name string) string {
		if o.migrate {
			return name
		}
		return name + "-nomigrate"
	}
	switch {
	case o.scenarioName != "":
		return o.scenarioName
	case o.hostile:
		return "http-hostile"
	case o.ws:
		return migr("ws-echo")
	case o.proxy:
		return migr("proxy-keepalive")
	case o.http && o.tracePath != "":
		return "http-keepalive-traced"
	case o.http && o.scrapeEvery > 0:
		return "http-keepalive-scraped"
	case o.http:
		return migr("http-keepalive")
	case o.longlived > 0 && o.migrate:
		return "longlived-migrate"
	case o.longlived > 0:
		return "longlived-steal-only"
	case o.stallMS > 0:
		return "echo-stall"
	default:
		return "echo"
	}
}
