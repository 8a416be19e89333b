package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nwscpu/internal/nwsnet"
)

func startBackends(t *testing.T) (memAddr, fcAddr string) {
	t.Helper()
	mem := nwsnet.NewMemory(0)
	memSrv := nwsnet.NewServer(mem, nil)
	memAddr, err := memSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { memSrv.Close() })

	fcSrv := nwsnet.NewServer(nwsnet.NewForecasterService([]string{memAddr}, time.Second), nil)
	fcAddr, err = fcSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fcSrv.Close() })

	c := nwsnet.NewClient(time.Second)
	pts := make([][2]float64, 40)
	for i := range pts {
		pts[i] = [2]float64{float64(i * 10), 0.5 + 0.01*float64(i%5)}
	}
	if err := c.StoreCtx(context.Background(), memAddr, "thing1/cpu/nws_hybrid", pts); err != nil {
		t.Fatal(err)
	}
	return memAddr, fcAddr
}

func TestDashboardIndex(t *testing.T) {
	memAddr, fcAddr := startBackends(t)
	d := newDashboard(memAddr, fcAddr, "")
	ts := httptest.NewServer(d)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	out := body.String()
	for _, want := range []string{"thing1/cpu/nws_hybrid", "<svg", "Forecast"} {
		if !strings.Contains(out, want) {
			t.Fatalf("index missing %q:\n%s", want, out)
		}
	}
}

func TestDashboardAPI(t *testing.T) {
	memAddr, fcAddr := startBackends(t)
	d := newDashboard(memAddr, fcAddr, "")
	ts := httptest.NewServer(d)
	defer ts.Close()

	// Series list.
	resp, err := http.Get(ts.URL + "/api/series")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(names) != 1 || names[0] != "thing1/cpu/nws_hybrid" {
		t.Fatalf("names = %v", names)
	}

	// Points with max.
	resp, err = http.Get(ts.URL + "/api/series/thing1/cpu/nws_hybrid?max=5")
	if err != nil {
		t.Fatal(err)
	}
	var pts [][2]float64
	if err := json.NewDecoder(resp.Body).Decode(&pts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}

	// Forecast.
	resp, err = http.Get(ts.URL + "/api/forecast/thing1/cpu/nws_hybrid")
	if err != nil {
		t.Fatal(err)
	}
	var fc nwsnet.ForecastResult
	if err := json.NewDecoder(resp.Body).Decode(&fc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fc.Value < 0.4 || fc.Value > 0.6 {
		t.Fatalf("forecast = %+v", fc)
	}
}

func TestDashboardErrors(t *testing.T) {
	memAddr, _ := startBackends(t)
	d := newDashboard(memAddr, "", "") // no forecaster
	ts := httptest.NewServer(d)
	defer ts.Close()

	cases := []struct {
		path string
		code int
	}{
		{"/api/series/unknown-key", http.StatusNotFound},
		{"/api/series/", http.StatusBadRequest},
		{"/api/series/k?max=zz", http.StatusBadRequest},
		{"/api/forecast/thing1/cpu/nws_hybrid", http.StatusNotImplemented},
		{"/nonsense", http.StatusNotFound},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.code)
		}
	}
}

func TestDashboardDeadMemory(t *testing.T) {
	d := newDashboard("127.0.0.1:1", "", "")
	ts := httptest.NewServer(d)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/series")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
}

func TestDashboardMetricsEndpoints(t *testing.T) {
	memAddr, fcAddr := startBackends(t)
	d := newDashboard(memAddr, fcAddr, "")
	ts := httptest.NewServer(d)
	defer ts.Close()

	// Generate some traffic so the panel and exposition are non-empty.
	for _, p := range []string{"/", "/api/series"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	body := b.String()
	for _, want := range []string{
		`nwsweb_http_requests_total{route="/"}`,
		`nwsweb_http_requests_total{route="/api/series"}`,
		"nwsweb_http_request_seconds_bucket",
		`nws_client_calls_total{op="series"}`, // outbound backend calls
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var snap []map[string]any
	jr, err := http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(jr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if len(snap) == 0 {
		t.Error("/api/metrics snapshot is empty")
	}
}

func TestDashboardIndexMetricsPanel(t *testing.T) {
	memAddr, _ := startBackends(t)
	d := newDashboard(memAddr, "", "")
	ts := httptest.NewServer(d)
	defer ts.Close()

	// First request records metrics; second renders them into the panel.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			resp.Body.Close()
			continue
		}
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		out := b.String()
		for _, want := range []string{"Live metrics", "nwsweb_http_requests_total", `href="/metrics"`} {
			if !strings.Contains(out, want) {
				t.Errorf("index missing %q", want)
			}
		}
	}
}

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/":                       "/",
		"/api/series":             "/api/series",
		"/api/series/a/cpu/x":     "/api/series/{key}",
		"/api/forecast/a/cpu/x":   "/api/forecast/{key}",
		"/metrics":                "/metrics",
		"/api/metrics":            "/api/metrics",
		"/favicon.ico":            "other",
		"/debug/anything/else/at": "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestSparklineSinglePoint(t *testing.T) {
	out := string(sparkline([][2]float64{{0, 1}}))
	if !strings.Contains(out, "<svg") {
		t.Fatalf("sparkline = %q", out)
	}
}
