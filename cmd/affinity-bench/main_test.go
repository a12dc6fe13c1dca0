package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"affinityaccept/serve"
)

// readReports loads the JSON record array at path.
func readReports(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reps []map[string]any
	if err := json.Unmarshal(data, &reps); err != nil {
		t.Fatalf("%s is not a JSON record array: %v", path, err)
	}
	return reps
}

// TestAddStatsRecord pins the serve.Stats → record mapping every server
// mode shares: the JSON keys it produces and their values, omitempty
// dropping what a mode never touched, and -ws reporting the codec pool
// it is handed instead of the server's own pool.
func TestAddStatsRecord(t *testing.T) {
	base := serve.Stats{
		Sharded:      true,
		Served:       200,
		ServedLocal:  150,
		ServedStolen: 50,
		Dropped:      3,
		Requeued:     40,
		Migrations:   7,
		Pool:         serve.PoolStats{Reuses: 90, Misses: 10},
	}
	chips := base
	chips.Pool = serve.PoolStats{}
	chips.CrossChipSteals, chips.CrossChipMigrations, chips.StealEstCycles = 5, 2, 1234
	chips.AdaptiveInterval = 400 * time.Millisecond
	chips.FrozenGroups, chips.GroupFreezes, chips.GroupUnfreezes = 1, 3, 2
	chips.PinnedWorkers, chips.PinFailures = 3, 1
	edge := base
	edge.Upstream = serve.PoolStats{Reuses: 99, Misses: 1}
	edge.Ratelimited, edge.ShedParked, edge.BudgetRejected, edge.AcceptRetries = 11, 12, 13, 14
	edge.LivePeak, edge.MaxConns = 100, 256

	common := map[string]any{
		"sharded": true, "localityPct": 75.0, "stealPct": 25.0, "servedStolen": 50.0,
		"migrations": 7.0, "requeued": 40.0, "dropped": 3.0,
	}
	cases := []struct {
		name   string
		o      opts
		st     serve.Stats
		pool   serve.PoolStats
		want   map[string]any
		absent []string
	}{
		{
			name: "http",
			o:    opts{distAware: true},
			st:   base,
			pool: base.Pool,
			want: map[string]any{"poolGets": 100.0, "poolMisses": 10.0, "poolReusePct": 90.0},
			absent: []string{"upstreamGets", "upstreamReusePct", "chips", "distanceBlind", "stealEstCycles",
				"adaptiveIntervalMs", "pinnedWorkers", "ratelimited", "livePeak", "maxConns"},
		},
		{
			name: "ws codec pool",
			o:    opts{distAware: true},
			st:   base,
			pool: serve.PoolStats{Reuses: 495, Misses: 5},
			want: map[string]any{"poolGets": 500.0, "poolMisses": 5.0, "poolReusePct": 99.0},
		},
		{
			name: "serve 2-chip blind adaptive pinned",
			o:    opts{chips: 2, distAware: false},
			st:   chips,
			want: map[string]any{
				"chips": 2.0, "distanceBlind": true, "crossChipSteals": 5.0, "crossChipMigrations": 2.0,
				"stealEstCycles": 1234.0, "adaptiveIntervalMs": 400.0, "frozenGroups": 1.0,
				"groupFreezes": 3.0, "groupUnfreezes": 2.0, "pinnedWorkers": 3.0, "pinFailures": 1.0,
			},
			absent: []string{"poolGets", "poolReusePct", "upstreamReusePct"},
		},
		{
			name: "proxy and admission",
			o:    opts{chips: 2, distAware: true},
			st:   edge,
			pool: edge.Pool,
			want: map[string]any{
				"chips": 2.0, "upstreamGets": 100.0, "upstreamMisses": 1.0, "upstreamReusePct": 99.0,
				"ratelimited": 11.0, "shedParked": 12.0, "budgetRejected": 13.0, "acceptRetries": 14.0,
				"livePeak": 100.0, "maxConns": 256.0,
			},
			absent: []string{"distanceBlind", "adaptiveIntervalMs"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var rep benchReport
			rep.addStats(c.o, c.st, c.pool)
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]any
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			for _, want := range []map[string]any{common, c.want} {
				for k, v := range want {
					if !reflect.DeepEqual(got[k], v) {
						t.Errorf("%s = %v, want %v", k, got[k], v)
					}
				}
			}
			for _, k := range c.absent {
				if v, ok := got[k]; ok {
					t.Errorf("%s = %v, want it omitted", k, v)
				}
			}
		})
	}
}

// TestModesSmoke runs every loopback mode in-process for a short window
// and checks that each returns cleanly and appends exactly one record
// under its scenario name. It asserts structure only: a 200ms run is
// too short for rates or migration counters to mean anything.
func TestModesSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	cases := []struct {
		scenario string
		args     []string
	}{
		{"echo", []string{"-serve", "-clients", "4"}},
		{"longlived-migrate", []string{"-serve", "-workers", "2", "-longlived", "8"}},
		{"http-keepalive", []string{"-http", "-clients", "4"}},
		{"proxy-keepalive", []string{"-proxy", "-clients", "4"}},
		{"ws-echo", []string{"-ws", "-clients", "4", "-held", "16", "-broadcast-every", "50ms"}},
		{"http-hostile", []string{"-hostile", "-clients", "4", "-slowloris", "2", "-floods", "1"}},
	}
	for i, c := range cases {
		var o opts
		fs := flag.NewFlagSet("affinity-bench", flag.ContinueOnError)
		o.bind(fs)
		args := append([]string{"-addr", "127.0.0.1:0", "-duration", "200ms", "-json", path}, c.args...)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := execute(o, fs.Args()); err != nil {
			t.Fatalf("%s: %v", c.scenario, err)
		}
		reps := readReports(t, path)
		if len(reps) != i+1 {
			t.Fatalf("%s: %d records after %d runs", c.scenario, len(reps), i+1)
		}
		rep := reps[i]
		if rep["scenario"] != c.scenario {
			t.Errorf("record %d scenario = %v, want %s", i, rep["scenario"], c.scenario)
		}
		for _, k := range []string{"workers", "clients", "durationSecs", "reqPerSec", "p99us", "failed", "localityPct", "goVersion"} {
			if _, ok := rep[k]; !ok {
				t.Errorf("%s record has no %q key", c.scenario, k)
			}
		}
	}
}
