package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// history_fetch: forecasters and dashboards reading history while sensor
// daemons keep writing, through the lockstep pooled Client under a
// ReplicaGroup over two replica memory servers (write quorum 2, reads from
// the first healthy replica). Each client goroutine has one request
// outstanding; the seeded mix is 60% tail fetch (most recent 64 points), 30%
// mid-history range of 1024 points, 10% host-tick store.
const (
	fetchHosts           = 512
	fetchCapacity        = 2048
	fetchTail            = 64
	fetchRange           = 1024
	fetchRequestsPerPass = 21000 // per client
	fetchContentEvery    = 100   // one response in this many is compared point by point
)

const (
	kindTail uint8 = iota
	kindRange
	kindStore
)

// fetchOp is one generated request and what its answer must look like.
type fetchOp struct {
	kind   uint8
	series int // tail, range: the series read
	host   int // store: the host ticked
	from   int // first tick the answer holds (store: the tick stored)
	n      int // points the answer holds (store: points acked)
	full   bool
}

// fetchGen is client c's request stream: a pure function of the seed. It
// tracks the last tick stored per host, so every answer is known in advance.
type fetchGen struct {
	r       rng
	c, step int
	ticks   []int // by host; only hosts = c mod step are used
	seq     uint64
}

func newFetchGen(seed uint64, c, clients int) *fetchGen {
	g := &fetchGen{r: rng{s: mix(seed, uint64(c), 200)}, c: c, step: clients, ticks: make([]int, fetchHosts)}
	for h := range g.ticks {
		g.ticks[h] = fetchCapacity
	}
	return g
}

func (g *fetchGen) next() fetchOp {
	g.seq++
	u := g.r.next()
	host := g.c + g.step*int(u>>32%uint64(fetchHosts/g.step))
	series := 3*host + int(u>>24%3)
	op := fetchOp{series: series, host: host, full: u>>8%fetchContentEvery == 0}
	switch pct := u % 100; {
	case pct < 60:
		op.kind, op.n = kindTail, fetchTail
		op.from = g.ticks[host] - fetchTail + 1
	case pct < 90:
		op.kind, op.n = kindRange, fetchRange
		oldest := g.ticks[host] - fetchCapacity + 1
		op.from = oldest + g.r.intn(fetchCapacity-fetchRange+1)
	default:
		g.ticks[host]++
		op.kind, op.n, op.from = kindStore, 3, g.ticks[host]
	}
	return op
}

// laneState is what the traced seams under a client goroutine need to find
// their parent span: the lane's open request and open client call.
type laneState struct {
	lane  uint8
	trace atomic.Uint64
	root  atomic.Int32
	call  atomic.Int32
}

type laneKey struct{}

type historyFetch struct {
	cfg      runConfig
	requests int // per client per pass
	clients  int
	set      *seriesSet
	mems     [2]*Memory
	handlers [2]*tracedHandler
	srvs     [2]*Server
	group    *ReplicaGroup
	closeCl  func() error
	tr       atomic.Pointer[tracer]
	gens     []*fetchGen
	lanes    []*laneState
}

func newHistoryFetch(cfg runConfig) *historyFetch {
	w := &historyFetch{cfg: cfg, requests: scaled(fetchRequestsPerPass, cfg.scale(), 200), clients: clientCount()}
	for c := 0; c < w.clients; c++ {
		w.gens = append(w.gens, newFetchGen(cfg.seed, c, w.clients))
		w.lanes = append(w.lanes, &laneState{lane: uint8(c)})
	}
	return w
}

func (w *historyFetch) unit() string   { return "point returned or acked" }
func (w *historyFetch) pathLanes() int { return w.clients }
func (w *historyFetch) counts() map[string]int {
	return map[string]int{"requests": w.requests * w.clients}
}
func (w *historyFetch) spanBudget() int { return 5 * w.requests * w.clients }

func (w *historyFetch) setup(st *setupTimes) error {
	w.set = newSeriesSet(w.cfg.seed, 3*fetchHosts, w.cfg.tracePool(st))
	var addrs []string
	for i := range w.mems {
		w.mems[i] = newMemory(fetchCapacity)
		t0 := time.Now()
		if err := w.set.prefill(w.mems[i], upTo(fetchCapacity)); err != nil {
			return err
		}
		st.prefill += time.Since(t0)
		var h Handler = w.mems[i]
		if w.cfg.trace {
			w.handlers[i] = &tracedHandler{inner: w.mems[i], link: w.link, store: spMemoryStore, lane: laneServer}
			h = w.handlers[i]
		}
		srv, addr, err := startServer(h)
		if err != nil {
			return err
		}
		w.srvs[i] = srv
		addrs = append(addrs, addr)
	}
	var wrap func(Transport) Transport
	if w.cfg.trace {
		wrap = func(t Transport) Transport { return &tracedTransport{Transport: t, tr: &w.tr} }
	}
	w.group, w.closeCl = newReplicaGroup(addrs, wrap)
	// One round trip per replica and client, so the pooled connections
	// exist before the first timed request.
	for _, key := range w.set.keys[:2*w.clients] {
		if _, err := w.group.Fetch(context.Background(), key, 0, 0, 1); err != nil {
			return err
		}
	}
	return nil
}

// link finds the open client call of the lane that owns the request's host.
func (w *historyFetch) link(req *Request) (int32, uint64) {
	key := req.Series
	if len(req.Batch) > 0 {
		key = req.Batch[0].Series
	}
	i, ok := w.set.index[key]
	if !ok {
		return noParent, 0
	}
	ls := w.lanes[(int(i)/3)%w.clients]
	return ls.call.Load(), ls.trace.Load()
}

// tracedTransport records one span around each Client call the replica
// group makes, under the calling lane's open request.
type tracedTransport struct {
	Transport
	tr *atomic.Pointer[tracer]
}

func (t *tracedTransport) begin(ctx context.Context) (*tracer, int32) {
	tr := t.tr.Load()
	ls, _ := ctx.Value(laneKey{}).(*laneState)
	if tr == nil || ls == nil {
		return nil, noParent
	}
	i := tr.begin(spClientCall, ls.lane, ls.root.Load(), ls.trace.Load())
	ls.call.Store(i)
	return tr, i
}

func (t *tracedTransport) FetchCtx(ctx context.Context, addr, key string, from, to float64, max int) ([][2]float64, error) {
	tr, i := t.begin(ctx)
	pts, err := t.Transport.FetchCtx(ctx, addr, key, from, to, max)
	tr.end(i, len(pts))
	return pts, err
}

func (t *tracedTransport) StoreBatchCtx(ctx context.Context, addr string, stores []BatchStore) ([]error, error) {
	tr, i := t.begin(ctx)
	errs, err := t.Transport.StoreBatchCtx(ctx, addr, stores)
	tr.end(i, len(stores))
	return errs, err
}

func (w *historyFetch) pass(p int, tr *tracer, rec *recorder) (passResult, error) {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	for _, h := range w.handlers {
		if h != nil {
			h.tr.Store(tr)
			defer h.tr.Store(nil)
		}
	}
	return runClients(w.clients, func(c int) passResult { return w.client(c, tr, rec) }), nil
}

var replicaSpan = [3]uint8{kindTail: spReplicaTail, kindRange: spReplicaRange, kindStore: spReplicaStore}

// client issues one pass of client c's stream in lockstep and checks every
// answer: point count and first/last timestamp always, full content on the
// seeded sample. A wrong answer is a failed operation.
func (w *historyFetch) client(c int, tr *tracer, rec *recorder) (res passResult) {
	g, ls := w.gens[c], w.lanes[c]
	ctx := context.WithValue(context.Background(), laneKey{}, ls)
	var stores [3]BatchStore
	var pts [3][1][2]float64
	for n := 0; n < w.requests; n++ {
		op := g.next()
		trace := uint64(c)<<48 | g.seq
		ls.trace.Store(trace)
		var ok bool
		t0 := time.Now()
		span := tr.begin(replicaSpan[op.kind], ls.lane, noParent, trace)
		ls.root.Store(span)
		switch op.kind {
		case kindTail:
			got, ferr := w.group.Fetch(ctx, w.set.keys[op.series], 0, 0, fetchTail)
			ok = ferr == nil && w.checkPoints(op, got)
		case kindRange:
			got, ferr := w.group.Fetch(ctx, w.set.keys[op.series], tickTime(op.from), tickTime(op.from+fetchRange), 0)
			ok = ferr == nil && w.checkPoints(op, got)
		case kindStore:
			for s := 0; s < 3; s++ {
				i := 3*op.host + s
				pts[s][0] = [2]float64{tickTime(op.from), w.set.val(i, op.from)}
				stores[s] = BatchStore{Series: w.set.keys[i], Points: pts[s][:]}
			}
			_, serr := w.group.StoreBatch(ctx, stores[:])
			ok = serr == nil
		}
		tr.end(span, op.n)
		rec.add(c, time.Since(t0))
		res.attempted++
		if ok {
			res.units += int64(op.n)
		} else {
			res.failed++
		}
	}
	return res
}

func (w *historyFetch) checkPoints(op fetchOp, got [][2]float64) bool {
	if len(got) != op.n || got[0][0] != tickTime(op.from) || got[op.n-1][0] != tickTime(op.from+op.n-1) {
		return false
	}
	if op.full {
		for k, tv := range got {
			if tv[0] != tickTime(op.from+k) || tv[1] != w.set.val(op.series, op.from+k) {
				return false
			}
		}
	}
	return true
}

func (w *historyFetch) retained() int64 {
	return w.set.retained(w.mems[0]) + w.set.retained(w.mems[1])
}

func (w *historyFetch) verify(int) error {
	last := func(i int) int { return w.gens[(i/3)%w.clients].ticks[i/3] }
	for r, mem := range w.mems {
		if err := w.set.checkDigests(fmt.Sprintf("history_fetch replica %d", r), mem, last, fetchCapacity); err != nil {
			return err
		}
	}
	return nil
}

func (w *historyFetch) scheduleFNV(passes int) uint64 {
	h := fnvOffset
	for c := 0; c < w.clients; c++ {
		g := newFetchGen(w.cfg.seed, c, w.clients)
		for n := 0; n < passes*w.requests; n++ {
			op := g.next()
			h.word(uint64(op.kind)<<56 | uint64(op.series)<<32 | uint64(op.from))
			if op.kind == kindStore {
				for s := 0; s < 3; s++ {
					h.point(tickTime(op.from), w.set.val(3*op.host+s, op.from))
				}
			}
		}
	}
	return uint64(h)
}

func (w *historyFetch) layers(sum traceSummary, tracedWall time.Duration, m map[string]float64) error {
	m["replica.call.self_us_p50"] = sum.quantileUs(0.50, true, spReplicaTail, spReplicaRange, spReplicaStore)
	m["replica.request.p99_us"] = sum.quantileUs(0.99, false, spReplicaTail, spReplicaRange, spReplicaStore)
	m["client.call.self_us_p50"] = sum.get(spClientCall).SelfP50
	m["replica.tail.p50_us"] = sum.get(spReplicaTail).P50Us
	m["replica.range.p50_us"] = sum.get(spReplicaRange).P50Us
	m["replica.store.p50_us"] = sum.get(spReplicaStore).P50Us
	memoryLayers(sum, m)
	return nil
}

func (w *historyFetch) close() error {
	var first error
	if w.closeCl != nil {
		first = w.closeCl()
		w.closeCl = nil
	}
	for i, srv := range w.srvs {
		if srv != nil {
			if err := srv.Close(); err != nil && first == nil {
				first = err
			}
			w.srvs[i] = nil
		}
	}
	return first
}
