package metrics

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mount it at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Errors past the header are write failures to a gone client.
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler returns an http.Handler serving the registry snapshot as
// JSON — mount it at /metrics.json.
func JSONHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(r.Snapshot())
	})
}

// NewDebugMux returns a mux with the full observability surface:
//
//	/metrics        Prometheus text exposition of reg
//	/metrics.json   JSON snapshot of reg
//	/debug/vars     expvar (Go runtime memstats, cmdline)
//	/debug/pprof/   net/http/pprof profiles (heap, profile, trace, …)
//
// Registering pprof on a private mux rather than http.DefaultServeMux keeps
// the profiling surface off any application listener.
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(reg))
	mux.Handle("/metrics.json", JSONHandler(reg))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running metrics/profiling HTTP server.
type DebugServer struct {
	addr string
	srv  *http.Server

	mu     sync.Mutex
	closed bool
}

// ServeDebug binds addr (":0" for an ephemeral port) and serves NewDebugMux
// for reg in a background goroutine. Close shuts it down.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ds := &DebugServer{
		addr: ln.Addr().String(),
		srv:  &http.Server{Handler: NewDebugMux(reg)},
	}
	go func() { _ = ds.srv.Serve(ln) }()
	return ds, nil
}

// Addr returns the bound listen address.
func (ds *DebugServer) Addr() string { return ds.addr }

// Close stops the server. It is idempotent.
func (ds *DebugServer) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return nil
	}
	ds.closed = true
	return ds.srv.Close()
}
