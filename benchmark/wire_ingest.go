package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// wire_ingest: sensor daemons storing into one memory server over the binary
// pipelined protocol. 512 hosts x 3 sensors, every ring already full, so each
// stored point also evicts one. Each client connection keeps 64 host ticks in
// flight; a host tick is one batch of three one-point stores.
const (
	wireHosts        = 512
	wireCapacity     = 2048
	wireWindow       = 64
	wireTicksPerPass = 768 // per host; x1536 series = points per pass
)

// clients is the number of load-generating goroutines (and connections): one
// per CPU, at most 2 so the server side keeps a core on larger machines too.
func clientCount() int { return min(2, runtime.GOMAXPROCS(0)) }

type wireIngest struct {
	cfg     runConfig
	ticks   int // per pass
	clients int
	set     *seriesSet
	mem     *Memory
	handler *tracedHandler
	srv     *Server
	conns   []*MuxConn
}

func newWireIngest(cfg runConfig) *wireIngest {
	return &wireIngest{cfg: cfg, ticks: scaled(wireTicksPerPass, cfg.scale(), 4), clients: clientCount()}
}

func (w *wireIngest) unit() string   { return "point acked" }
func (w *wireIngest) pathLanes() int { return w.clients }
func (w *wireIngest) counts() map[string]int {
	return map[string]int{"host_ticks": w.ticks * wireHosts, "points": w.ticks * wireHosts * 3}
}
func (w *wireIngest) spanBudget() int { return 2 * w.ticks * wireHosts }

func (w *wireIngest) setup(st *setupTimes) error {
	w.set = newSeriesSet(w.cfg.seed, 3*wireHosts, w.cfg.tracePool(st))
	w.mem = newMemory(wireCapacity)
	t0 := time.Now()
	if err := w.set.prefill(w.mem, upTo(wireCapacity)); err != nil {
		return err
	}
	st.prefill = time.Since(t0)
	var h Handler = w.mem
	if w.cfg.trace {
		w.handler = &tracedHandler{inner: w.mem, link: w.link, store: spMemoryStore, lane: laneServer}
		h = w.handler
	}
	var addr string
	var err error
	if w.srv, addr, err = startServer(h); err != nil {
		return err
	}
	for c := 0; c < w.clients; c++ {
		conn, err := dialMux(addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, conn)
	}
	return nil
}

// link ties a server-side span to the client span of the same host tick.
func (w *wireIngest) link(req *Request) (int32, uint64) {
	if len(req.Batch) == 0 || len(req.Batch[0].Points) == 0 {
		return noParent, 0
	}
	sub := &req.Batch[0]
	return parentByTrace, tickTrace(int(w.set.index[sub.Series])/3, int(sub.Points[0][0]/cadence))
}

func tickTrace(host, tick int) uint64 { return uint64(host)<<32 | uint64(tick) }

// firstTick is the first tick pass p stores.
func (w *wireIngest) firstTick(p int) int { return wireCapacity + p*w.ticks + 1 }

func (w *wireIngest) pass(p int, tr *tracer, rec *recorder) (passResult, error) {
	if w.handler != nil {
		w.handler.tr.Store(tr)
		defer w.handler.tr.Store(nil)
	}
	return runClients(w.clients, func(c int) passResult {
		return w.client(c, w.firstTick(p), tr, rec)
	}), nil
}

// client stores one pass of ticks for the hosts of client c, keeping
// wireWindow host ticks in flight. Slots (and the request memory in them) are
// reused only after their previous call completed.
func (w *wireIngest) client(c, first int, tr *tracer, rec *recorder) (res passResult) {
	type slot struct {
		call  *MuxCall
		t0    time.Time
		span  int32
		subs  int
		batch [3]Request
		pts   [3][1][2]float64
	}
	slots := make([]slot, wireWindow)
	finish := func(s *slot) {
		resp, err := s.call.Wait()
		rec.add(c, time.Since(s.t0))
		tr.end(s.span, s.subs)
		s.call = nil
		res.attempted++
		if err != nil || resp.Error != "" || len(resp.Batch) != s.subs {
			res.failed++
			return
		}
		for i := range resp.Batch {
			if resp.Batch[i].Error != "" {
				res.failed++
				return
			}
		}
		res.units += int64(s.subs)
	}
	conn := w.conns[c]
	n := 0
	for tick := first; tick < first+w.ticks; tick++ {
		for h := c; h < wireHosts; h += w.clients {
			s := &slots[n%wireWindow]
			if s.call != nil {
				finish(s)
			}
			subs := w.set.hostTick(h, tick, &s.batch, &s.pts)
			s.subs = len(subs)
			s.span = tr.begin(spWireRequest, uint8(c), noParent, tickTrace(h, tick))
			s.t0 = time.Now()
			s.call = conn.Go(Request{Op: opBatch, Batch: subs})
			n++
		}
	}
	for i := 0; i < wireWindow; i++ {
		if s := &slots[(n+i)%wireWindow]; s.call != nil {
			finish(s)
		}
	}
	return res
}

func (w *wireIngest) retained() int64 { return w.set.retained(w.mem) }

func (w *wireIngest) verify(passes int) error {
	return w.set.checkDigests("wire_ingest", w.mem, upTo(w.firstTick(passes)-1), wireCapacity)
}

func (w *wireIngest) scheduleFNV(passes int) uint64 {
	h := fnvOffset
	for c := 0; c < w.clients; c++ {
		for tick := w.firstTick(0); tick < w.firstTick(passes); tick++ {
			for host := c; host < wireHosts; host += w.clients {
				h.word(tickTrace(host, tick))
				for i := 3 * host; i < 3*host+3; i++ {
					h.point(tickTime(tick), w.set.val(i, tick))
				}
			}
		}
	}
	return uint64(h)
}

func (w *wireIngest) layers(sum traceSummary, tracedWall time.Duration, m map[string]float64) error {
	wr := sum.get(spWireRequest)
	m["wire.request.count"] = float64(wr.N)
	// A lane keeps wireWindow requests in flight, so a request occupies its
	// lane for 1/wireWindow of its in-flight time (Little's law); what is
	// left after the handler's share is mux + server + binary codec.
	st := sum.get(spMemoryStore)
	m["wire.request.self_ns_per_point"] = (float64(wr.TotalNs)/wireWindow - float64(st.TotalNs)) / float64(wr.Units)
	m["wire.request.p99_us"] = wr.P99Us
	memoryLayers(sum, m)

	// The floor a perfect wire could reach: the same host ticks, from the
	// same number of goroutines, straight into a Memory in the same state.
	direct := newMemory(wireCapacity)
	if err := w.set.prefill(direct, upTo(wireCapacity)); err != nil {
		return err
	}
	loop, _, points, err := replayDirect(w.set, direct, w.firstTick(0), w.ticks, w.clients)
	if err != nil {
		return err
	}
	m["memory.direct_store_ns_per_point"] = float64(loop) / float64(points)
	return nil
}

func (w *wireIngest) close() error {
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	if w.srv != nil {
		err := w.srv.Close()
		w.srv = nil
		return err
	}
	return nil
}

// --- shared by the workloads that put a Memory behind a traced seam ---------

// tracedHandler records one span around each call into the wrapped handler
// while a tracer is set; link names the span's parent and trace id.
type tracedHandler struct {
	inner Handler
	tr    atomic.Pointer[tracer]
	link  func(req *Request) (parent int32, trace uint64)
	store uint8 // span name of a store: memory.handle.store or persist.handle
	lane  uint8 // laneServer behind a socket, the caller's lane in process
}

func (h *tracedHandler) Handle(req Request) Response {
	tr := h.tr.Load()
	if tr == nil {
		return h.inner.Handle(req)
	}
	name := h.store
	if req.Op == opFetch || (req.Op == opBatch && len(req.Batch) > 0 && req.Batch[0].Op == opFetch) {
		name = spMemoryFetch
	}
	parent, trace := h.link(&req)
	i := tr.begin(name, h.lane, parent, trace)
	resp := h.inner.Handle(req)
	tr.end(i, pointsOf(&req, &resp))
	return resp
}

// pointsOf counts the points a request stored or its response returned.
func pointsOf(req *Request, resp *Response) int {
	n := len(req.Points) + len(resp.Points)
	for i := range req.Batch {
		n += len(req.Batch[i].Points)
	}
	for i := range resp.Batch {
		n += len(resp.Batch[i].Points)
	}
	return n
}

// memoryLayers reports the handler-wrapper spans around Memory.Handle.
func memoryLayers(sum traceSummary, m map[string]float64) {
	st, ft := sum.get(spMemoryStore), sum.get(spMemoryFetch)
	m["memory.handle.count"] = float64(st.N + ft.N)
	if st.Units > 0 {
		m["memory.handle.store_ns_per_point"] = float64(st.TotalNs) / float64(st.Units)
	}
	if ft.Units > 0 {
		m["memory.handle.fetch_ns_per_point"] = float64(ft.TotalNs) / float64(ft.Units)
	}
	m["memory.handle.p99_us"] = st.P99Us
	if ft.N > st.N {
		m["memory.handle.p99_us"] = ft.P99Us
	}
}

// replayDirect stores ticks [first, first+ticks) of every host of the set
// straight into h as host-tick batches from the given number of goroutines.
// It returns the goroutines' summed loop time, the part of it spent inside
// h.Handle, and the points stored.
func replayDirect(set *seriesSet, h Handler, first, ticks, goroutines int) (loop, inHandle time.Duration, points int64, err error) {
	var loopNs, handleNs, stored, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < goroutines; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var batch [3]Request
			var pts [3][1][2]float64
			var n int64
			var handle time.Duration
			t0 := time.Now()
			for tick := first; tick < first+ticks; tick++ {
				for host := c; host < set.hosts(); host += goroutines {
					subs := set.hostTick(host, tick, &batch, &pts)
					h0 := time.Now()
					resp := h.Handle(Request{Op: opBatch, Batch: subs})
					handle += time.Since(h0)
					if resp.Error != "" || len(resp.Batch) != len(subs) {
						failed.Add(1)
					}
					n += int64(len(subs))
				}
			}
			loopNs.Add(int64(time.Since(t0)))
			handleNs.Add(int64(handle))
			stored.Add(n)
		}(c)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return 0, 0, 0, fmt.Errorf("direct replay: %d host ticks rejected", n)
	}
	return time.Duration(loopNs.Load()), time.Duration(handleNs.Load()), stored.Load(), nil
}
