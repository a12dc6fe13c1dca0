package httpaff_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/proxyaff"
	"affinityaccept/wsaff"
)

// TestMetricsExpositionLint scrapes the unified /metrics endpoint with
// the proxyaff and wsaff writers composed in, and lints the whole page
// against the Prometheus text format: every sample's family has exactly
// one HELP and one TYPE line before its first sample, no family is
// declared twice, a family's samples are contiguous, counters end in
// _total, and every histogram carries its +Inf bucket, _sum and _count.
func TestMetricsExpositionLint(t *testing.T) {
	backend := startServer(t, httpaff.Config{Workers: 1, Handler: func(ctx *httpaff.RequestCtx) {
		ctx.WriteString("origin")
	}})
	p, err := proxyaff.New(proxyaff.Config{Backends: []string{backend.Addr().String()}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ws, err := wsaff.New(wsaff.Config{Workers: 2, OnMessage: func(c *wsaff.Conn, op wsaff.Op, b []byte) { c.Send(op, b) }})
	if err != nil {
		t.Fatal(err)
	}
	ws.Start()
	t.Cleanup(ws.Close)

	var front *httpaff.Server
	r := httpaff.NewRouter()
	r.Handle("/metrics", func(ctx *httpaff.RequestCtx) {
		httpaff.MetricsHandler(front, p.WriteObsMetrics, ws.WriteObsMetrics)(ctx)
	})
	r.NotFound(p.Serve)
	front = startServer(t, httpaff.Config{Workers: 2, Handler: r.Serve, WorkerUpstream: p.PoolSnapshot})

	// One proxied request so the histograms have finite buckets too.
	base := "http://" + front.Addr().String()
	if body := get(t, base+"/whoami"); body != "origin" {
		t.Fatalf("proxied request: %q", body)
	}
	page := get(t, base+"/metrics")

	help := map[string]int{}
	typ := map[string]string{}
	types := map[string]int{}
	seen := map[string]bool{} // families with samples already emitted
	hist := map[string]map[string]bool{}
	last := ""
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			help[name]++
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			types[name]++
			typ[name] = kind
			continue
		}
		series, _, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			t.Errorf("malformed line %q", line)
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && typ[base] == "histogram" {
				fam = base
				if hist[fam] == nil {
					hist[fam] = map[string]bool{}
				}
				hist[fam][strings.TrimPrefix(series, base)] = true
			}
		}
		if fam != last {
			if seen[fam] {
				t.Errorf("family %s: samples not contiguous", fam)
			}
			if help[fam] != 1 || types[fam] != 1 {
				t.Errorf("family %s: first sample after %d HELP and %d TYPE lines, want 1 each", fam, help[fam], types[fam])
			}
			seen[fam] = true
			last = fam
		}
	}
	for name, n := range help {
		if n > 1 {
			t.Errorf("family %s: %d HELP lines", name, n)
		}
	}
	for name, n := range types {
		if n > 1 {
			t.Errorf("family %s: %d TYPE lines", name, n)
		}
	}
	for name, kind := range typ {
		switch kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s does not end in _total", name)
			}
		case "histogram":
			for _, s := range []string{`_bucket{le="+Inf"}`, "_sum", "_count"} {
				if !hist[name][s] {
					t.Errorf("histogram %s has no %s%s sample", name, name, s)
				}
			}
		}
	}
	if len(seen) < 50 {
		t.Errorf("only %d families scraped; the composition lost a layer", len(seen))
	}
}

func startServer(t *testing.T, cfg httpaff.Config) *httpaff.Server {
	t.Helper()
	s, err := httpaff.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func get(t *testing.T, url string) string {
	t.Helper()
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}
