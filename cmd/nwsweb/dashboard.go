package main

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nwscpu/internal/metrics"
	"nwscpu/internal/nwsnet"
)

// The dashboard's own instrumentation, alongside the nwsnet client metrics
// its backend calls record. Routes are labeled by pattern, not raw path, to
// keep the label cardinality bounded.
var (
	webRequests = metrics.NewCounterVec(
		"nwsweb_http_requests_total",
		"Dashboard HTTP requests, by route pattern.", "route")
	webLatency = metrics.NewHistogramVec(
		"nwsweb_http_request_seconds",
		"Dashboard HTTP request latency in seconds (backend calls included), by route pattern.",
		nil, "route")
)

// dashboard is the HTTP handler pulling from the NWS backends per request.
type dashboard struct {
	memory     string
	forecaster string
	client     *nwsnet.Client
	mux        *http.ServeMux
}

// newDashboard builds the handler. tenant, when non-empty, attributes every
// outbound backend call to that tenant's quota bucket (nwsd -tenant-rate),
// so a dashboard's read traffic is throttled like any other tenant's
// instead of riding anonymously.
func newDashboard(memory, forecaster, tenant string) *dashboard {
	d := &dashboard{
		memory:     memory,
		forecaster: forecaster,
		client: nwsnet.NewClientOptions(nwsnet.ClientOptions{
			Timeout: 5 * time.Second,
			Tenant:  tenant,
		}),
		mux: http.NewServeMux(),
	}
	d.mux.HandleFunc("/", d.handleIndex)
	d.mux.HandleFunc("/api/series", d.handleSeriesList)
	d.mux.HandleFunc("/api/series/", d.handleSeriesGet)
	d.mux.HandleFunc("/api/forecast/", d.handleForecast)
	d.mux.Handle("/metrics", metrics.Handler(metrics.Default))
	d.mux.Handle("/api/metrics", metrics.JSONHandler(metrics.Default))
	return d
}

// ServeHTTP implements http.Handler, recording per-route request counts and
// latency around the mux dispatch.
func (d *dashboard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	route := routeLabel(r.URL.Path)
	d.mux.ServeHTTP(w, r)
	webRequests.With(route).Inc()
	webLatency.With(route).ObserveSince(t0)
}

// routeLabel collapses request paths onto their route patterns.
func routeLabel(path string) string {
	switch {
	case path == "/":
		return "/"
	case path == "/api/series":
		return "/api/series"
	case strings.HasPrefix(path, "/api/series/"):
		return "/api/series/{key}"
	case strings.HasPrefix(path, "/api/forecast/"):
		return "/api/forecast/{key}"
	case path == "/api/metrics":
		return "/api/metrics"
	case path == "/metrics":
		return "/metrics"
	}
	return "other"
}

func (d *dashboard) handleSeriesList(w http.ResponseWriter, r *http.Request) {
	names, err := d.client.SeriesCtx(r.Context(), d.memory)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, names)
}

func (d *dashboard) handleSeriesGet(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/api/series/")
	if key == "" {
		http.Error(w, "missing series key", http.StatusBadRequest)
		return
	}
	max := 0
	if ms := r.URL.Query().Get("max"); ms != "" {
		var err error
		if max, err = strconv.Atoi(ms); err != nil || max < 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
	}
	pts, err := d.client.FetchCtx(r.Context(), d.memory, key, 0, 0, max)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, pts)
}

func (d *dashboard) handleForecast(w http.ResponseWriter, r *http.Request) {
	if d.forecaster == "" {
		http.Error(w, "no forecaster configured", http.StatusNotImplemented)
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/api/forecast/")
	if key == "" {
		http.Error(w, "missing series key", http.StatusBadRequest)
		return
	}
	fc, err := d.client.ForecastCtx(r.Context(), d.forecaster, key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, fc)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do.
		return
	}
}

// indexSeries is one dashboard row.
type indexSeries struct {
	Key      string
	Last     string
	N        int
	Spark    template.HTML
	Forecast string
}

// metricRow is one line of the live metrics panel.
type metricRow struct {
	Name   string
	Labels string
	Value  string
}

// indexData feeds the index template.
type indexData struct {
	Rows    []indexSeries
	Metrics []metricRow
}

func (d *dashboard) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	names, err := d.client.SeriesCtx(r.Context(), d.memory)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	var rows []indexSeries
	for _, key := range names {
		pts, err := d.client.FetchCtx(r.Context(), d.memory, key, 0, 0, 120)
		if err != nil || len(pts) == 0 {
			continue
		}
		row := indexSeries{
			Key:   key,
			Last:  fmt.Sprintf("%.4g", pts[len(pts)-1][1]),
			N:     len(pts),
			Spark: sparkline(pts),
		}
		if d.forecaster != "" {
			if fc, err := d.client.ForecastCtx(r.Context(), d.forecaster, key); err == nil {
				row.Forecast = fmt.Sprintf("%.4g (%s)", fc.Value, fc.Method)
			}
		}
		rows = append(rows, row)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTemplate.Execute(w, indexData{Rows: rows, Metrics: metricRows()}); err != nil {
		return
	}
}

// metricRows flattens the process's registry snapshot for the live panel:
// counters and gauges show their value, histograms their count and mean.
func metricRows() []metricRow {
	var out []metricRow
	for _, fam := range metrics.Default.Snapshot() {
		for _, m := range fam.Metrics {
			row := metricRow{Name: fam.Name}
			if len(m.LabelValues) > 0 {
				pairs := make([]string, len(m.LabelValues))
				for i, v := range m.LabelValues {
					pairs[i] = fam.Labels[i] + "=" + v
				}
				row.Labels = strings.Join(pairs, ", ")
			}
			if fam.Type == "histogram" {
				mean := 0.0
				if m.Count > 0 {
					mean = m.Sum / float64(m.Count)
				}
				row.Value = fmt.Sprintf("n=%d mean=%.3gs", m.Count, mean)
			} else {
				row.Value = strconv.FormatFloat(m.Value, 'g', 6, 64)
			}
			out = append(out, row)
		}
	}
	return out
}

// sparkline renders up to 120 recent points as a tiny inline SVG.
func sparkline(pts [][2]float64) template.HTML {
	const w, h = 240, 36
	lo, hi := pts[0][1], pts[0][1]
	for _, p := range pts {
		if p[1] < lo {
			lo = p[1]
		}
		if p[1] > hi {
			hi = p[1]
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d"><polyline fill="none" stroke="#1f77b4" stroke-width="1" points="`, w, h, w, h)
	for i, p := range pts {
		x := float64(i) / float64(len(pts)-1+min(1, len(pts)-1)) * (w - 2)
		if len(pts) == 1 {
			x = w / 2
		}
		y := (1-(p[1]-lo)/(hi-lo))*(h-4) + 2
		fmt.Fprintf(&b, "%.1f,%.1f ", x+1, y)
	}
	b.WriteString(`"/></svg>`)
	return template.HTML(b.String())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>NWS dashboard</title>
<meta http-equiv="refresh" content="10">
<style>
 body { font-family: sans-serif; max-width: 860px; margin: 2em auto; }
 table { border-collapse: collapse; width: 100%; }
 th, td { border-bottom: 1px solid #ddd; padding: 6px 10px; text-align: left; }
</style></head>
<body>
<h1>Network Weather Service</h1>
<table>
<tr><th>Series</th><th>Recent</th><th>Last</th><th>Forecast</th></tr>
{{range .Rows}}<tr><td><code>{{.Key}}</code> <small>({{.N}} pts)</small></td><td>{{.Spark}}</td><td>{{.Last}}</td><td>{{.Forecast}}</td></tr>
{{else}}<tr><td colspan="4">no series yet</td></tr>
{{end}}
</table>
<details open>
<summary><h2 style="display:inline">Live metrics</h2>
 <small>(this process; <a href="/metrics">Prometheus</a> · <a href="/api/metrics">JSON</a>)</small></summary>
<table>
<tr><th>Metric</th><th>Labels</th><th>Value</th></tr>
{{range .Metrics}}<tr><td><code>{{.Name}}</code></td><td><small>{{.Labels}}</small></td><td>{{.Value}}</td></tr>
{{else}}<tr><td colspan="3">no metrics yet</td></tr>
{{end}}
</table>
</details>
</body></html>
`))
