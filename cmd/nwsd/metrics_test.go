package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nwscpu/internal/nwsnet"
)

// TestMemoryRoleServesMetrics is the end-to-end observability check: a
// memory daemon started with -metrics must expose Prometheus text-format
// metrics that include the memory-server op counters and latency
// histograms after real protocol traffic.
func TestMemoryRoleServesMetrics(t *testing.T) {
	stop := make(chan struct{})
	var mu sync.Mutex
	addrs := make(map[string]string)
	ready := make(chan string, 8)
	o := daemonOpts{
		role:        "memory",
		listen:      "127.0.0.1:0",
		metricsAddr: "127.0.0.1:0",
		stop:        stop,
		notify: func(component, addr string) {
			mu.Lock()
			addrs[component] = addr
			mu.Unlock()
			ready <- component
		},
	}
	runErr := make(chan error, 1)
	go func() { runErr <- run(o, quietLogger()) }()
	defer func() {
		close(stop)
		if err := <-runErr; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	// Wait for both listeners.
	seen := map[string]bool{}
	for len(seen) < 2 {
		select {
		case c := <-ready:
			seen[c] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("daemon not ready; got %v", seen)
		}
	}
	mu.Lock()
	memAddr, metricsAddr := addrs["memory"], addrs["metrics"]
	mu.Unlock()

	// Drive real traffic through the memory server.
	c := nwsnet.NewClient(time.Second)
	if err := c.StoreCtx(context.Background(), memAddr, "box/cpu/nws_hybrid", [][2]float64{{0, 0.5}, {10, 0.6}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchCtx(context.Background(), memAddr, "box/cpu/nws_hybrid", 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if len(body) == 0 {
		t.Fatal("/metrics is empty")
	}
	// Metric families are process-global and other tests in this package
	// also exercise nwsnet, so assert presence and non-zero values rather
	// than exact counts.
	for _, want := range []string{
		`nws_memory_requests_total{op="store"}`,
		`nws_memory_requests_total{op="fetch"}`,
		"nws_memory_points_stored_total",
		"nws_memory_points_fetched_total",
		`nws_memory_request_seconds_bucket{op="store",le="+Inf"}`,
		`nws_memory_request_seconds_count{op="store"}`,
		"nws_server_connections_total",
		"# TYPE nws_memory_request_seconds histogram",
		"# TYPE nws_memory_requests_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, series := range []string{
		`nws_memory_requests_total{op="store"}`,
		"nws_memory_points_stored_total",
	} {
		if !seriesNonZero(body, series) {
			t.Errorf("series %q is missing or zero", series)
		}
	}

	// The JSON snapshot rides on the same server.
	jr, err := http.Get("http://" + metricsAddr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(jr.Body)
	jr.Body.Close()
	if jr.StatusCode != 200 || !strings.Contains(string(jbody), "nws_memory_points_stored_total") {
		t.Errorf("/metrics.json: status=%d", jr.StatusCode)
	}

	// pprof is mounted too.
	pr, err := http.Get("http://" + metricsAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != 200 {
		t.Errorf("/debug/pprof/: status=%d", pr.StatusCode)
	}
}

// seriesNonZero reports whether the exposition body has a sample line for
// the series with a value other than "0".
func seriesNonZero(body, series string) bool {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest != "0"
		}
	}
	return false
}

// TestMetricsBadAddr makes a bad -metrics address a startup error, not a
// silent no-op.
func TestMetricsBadAddr(t *testing.T) {
	o := daemonOpts{role: "memory", listen: "127.0.0.1:0", metricsAddr: "256.0.0.1:bad"}
	if err := run(o, quietLogger()); err == nil {
		t.Fatal("bad -metrics address accepted")
	}
}
