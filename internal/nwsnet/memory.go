package nwsnet

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nwscpu/internal/series"
)

// memShardCount is the number of lock stripes a Memory spreads its series
// over. A power of two so the key hash maps to a shard with a mask. 32
// stripes keep contention negligible well past the core counts this serves
// on while costing ~a map header each.
const memShardCount = 32

// batchMaxWorkers bounds the goroutines executing one batch envelope's
// sub-requests; small batches below batchInlineLimit run inline on the
// connection goroutine instead.
const (
	batchMaxWorkers  = 8
	batchInlineLimit = 4
)

// Memory is the NWS persistent-state server: it stores bounded measurement
// series by key and serves range queries over them. Each series keeps at
// most its configured capacity of most-recent points in a ring buffer, like
// the circular files of the real NWS memory, so steady-state eviction is
// O(1) per point rather than a copy of the whole series.
//
// The store is sharded: series keys hash onto memShardCount independent
// lock stripes (a sync.RWMutex over a map each), so concurrent stores and
// fetches of different series proceed in parallel and fetches of the same
// series only share a read lock.
//
// Stores are idempotent under redelivery: points at or before a series'
// last stored timestamp are skipped (counted in
// nws_memory_points_deduped_total), so a timed-out-but-applied batch that a
// retry policy redelivers leaves exactly one copy of each point instead of
// duplicating the tail or wedging the writer on "out-of-order append".
type Memory struct {
	capacity int
	nSeries  atomic.Int64
	shards   [memShardCount]memShard

	// journal is the write-ahead log of a durable memory (persist_wal.go);
	// nil keeps everything in RAM only. Set once, before the memory serves.
	journal *journal
}

type memShard struct {
	mu    sync.RWMutex
	store map[string]*series.PointRing
}

// NewMemory returns a Memory keeping up to capacity points per series
// (<= 0 selects the default of 100000, about 11 days at 10-second cadence).
func NewMemory(capacity int) *Memory {
	if capacity <= 0 {
		capacity = 100000
	}
	m := &Memory{capacity: capacity}
	for i := range m.shards {
		m.shards[i].store = make(map[string]*series.PointRing)
	}
	return m
}

// shard returns the lock stripe owning key (FNV-1a over the key bytes).
func (m *Memory) shard(key string) *memShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &m.shards[h&(memShardCount-1)]
}

// Handle implements Handler.
func (m *Memory) Handle(req Request) Response {
	t0 := time.Now()
	mMemoryRequestsByOp.get(req.Op).Inc()
	defer mMemoryLatencyByOp.get(req.Op).ObserveSince(t0)
	resp := m.handle(req)
	if m.journal != nil && (req.Op == OpStore || req.Op == OpBatch || req.Op == OpBackfill) {
		// Every record the request appended — a batch's subs included — goes
		// out in one frame before the answer does.
		if err := m.journal.commit(); err != nil && resp.Error == "" {
			resp = errResp("%s: persistence: %v", req.Op, err)
		}
	}
	if resp.Error != "" {
		mMemoryErrorsByOp.get(req.Op).Inc()
	}
	return resp
}

func (m *Memory) handle(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{}
	case OpStore:
		return m.handleStore(req)
	case OpFetch:
		return m.handleFetch(req)
	case OpSeries:
		return m.handleSeries()
	case OpBatch:
		return m.handleBatch(req)
	case OpDigest:
		return m.handleDigest(req)
	case OpBackfill:
		return m.handleBackfill(req)
	default:
		return errResp("memory: unsupported op %q", req.Op)
	}
}

func (m *Memory) handleStore(req Request) Response {
	if req.Series == "" {
		return errResp("store requires a series key")
	}
	if len(req.Points) == 0 {
		return errResp("store requires points")
	}
	sh := m.shard(req.Series)
	sh.mu.Lock()
	r := sh.store[req.Series]
	created := false
	if r == nil {
		r = series.NewPointRing(m.capacity)
		sh.store[req.Series] = r
		created = true
	}
	var appended, deduped, evicted uint64
	// accepted is what the journal records: the request's points until one
	// is skipped, a filtered copy from then on.
	accepted, filtered := req.Points, false
	for i, tv := range req.Points {
		// Idempotent under redelivery: a point at or before the stored
		// frontier was already applied (or is stale) — skip it rather than
		// duplicating the tail or rejecting the whole batch.
		if last, ok := r.Last(); ok && tv[0] <= last.T {
			deduped++
			if !filtered && m.journal != nil {
				accepted, filtered = append([][2]float64(nil), req.Points[:i]...), true
			}
			continue
		}
		if r.Push(series.Point{T: tv[0], V: tv[1]}) {
			evicted++
		}
		appended++
		if filtered {
			accepted = append(accepted, tv)
		}
	}
	if m.journal != nil && appended > 0 {
		// Under the shard lock, so the series' log order is its apply order.
		m.journal.record(recStore, req.Series, accepted)
	}
	sh.mu.Unlock()
	if created {
		mMemorySeries.Set(float64(m.nSeries.Add(1)))
	}
	mMemoryPointsStored.Add(appended)
	mMemoryPointsDeduped.Add(deduped)
	mMemoryPointsEvicted.Add(evicted)
	return Response{}
}

func (m *Memory) handleFetch(req Request) Response {
	if req.Series == "" {
		return errResp("fetch requires a series key")
	}
	sh := m.shard(req.Series)
	sh.mu.RLock()
	r := sh.store[req.Series]
	if r == nil {
		sh.mu.RUnlock()
		return errResp("unknown series %q", req.Series)
	}
	// Range [from, to): to == 0 means "through the latest point". An
	// inverted range (to < from) yields an empty result instead of a slice
	// panic.
	lo := r.SearchT(req.From)
	hi := r.Len()
	if req.To != 0 {
		hi = r.SearchT(req.To)
	}
	if hi < lo {
		hi = lo
	}
	if req.Max > 0 && hi-lo > req.Max {
		lo = hi - req.Max
	}
	out := make([][2]float64, hi-lo)
	for i := lo; i < hi; i++ {
		p := r.At(i)
		out[i-lo] = [2]float64{p.T, p.V}
	}
	sh.mu.RUnlock()
	mMemoryPointsFetched.Add(uint64(len(out)))
	return Response{Points: out}
}

func (m *Memory) handleSeries() Response {
	names := make([]string, 0, m.nSeries.Load())
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for k := range sh.store {
			names = append(names, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return Response{Names: names}
}

// handleBatch executes the envelope's sub-requests — with bounded
// concurrency for large batches, inline for small ones — and returns their
// responses in request order. The shards make concurrent sub-execution
// safe; ordering across sub-requests of one envelope is only guaranteed to
// the extent their series differ, which is how callers use it (one
// sub-store per series).
func (m *Memory) handleBatch(req Request) Response {
	if len(req.Batch) == 0 {
		return errResp("batch requires sub-requests")
	}
	mMemoryBatchSize.Observe(float64(len(req.Batch)))
	out := make([]Response, len(req.Batch))
	run := func(i int) {
		sub := req.Batch[i]
		op := opLabel(sub.Op)
		mMemoryBatchSubs.With(op).Inc()
		var r Response
		if sub.Op == OpBatch {
			r = errResp("batch: nested batch envelopes are not allowed")
		} else {
			r = m.handle(sub)
		}
		if r.Error != "" {
			mMemoryBatchSubErrors.With(op).Inc()
		}
		r.OK = r.Error == ""
		out[i] = r
	}
	if len(req.Batch) <= batchInlineLimit {
		for i := range req.Batch {
			run(i)
		}
		return Response{Batch: out}
	}
	workers := batchMaxWorkers
	if workers > len(req.Batch) {
		workers = len(req.Batch)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Batch) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return Response{Batch: out}
}

// digestOf summarizes a ring under its shard lock: point count, frontier
// (newest timestamp), and an FNV-1a checksum over the 16-byte little-endian
// (t, v) bit patterns in time order. The sum covers full content, so equal
// digests mean bit-identical series — the anti-entropy comparison the
// repair plane is built on (docs/PROTOCOL.md §9).
func digestOf(key string, r *series.PointRing) SeriesDigest {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(u uint64) {
		for i := 0; i < 8; i++ {
			h ^= (u >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	n := r.Len()
	for i := 0; i < n; i++ {
		p := r.At(i)
		mix(math.Float64bits(p.T))
		mix(math.Float64bits(p.V))
	}
	d := SeriesDigest{Series: key, Count: uint64(n), Sum: h}
	if last, ok := r.Last(); ok {
		d.Frontier = last.T
	}
	return d
}

// Digest returns the anti-entropy summary of one series; ok is false when
// the series is absent or empty.
func (m *Memory) Digest(key string) (SeriesDigest, bool) {
	sh := m.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.store[key]
	if r == nil || r.Len() == 0 {
		return SeriesDigest{}, false
	}
	return digestOf(key, r), true
}

// PrefixDigest summarizes the stored prefix of a series with t <= through.
// The repairer compares it against a peer's digest snapshot: live writes
// keep moving the local frontier past the snapshot, so only the prefix up
// to the peer's frontier can be expected to match.
func (m *Memory) PrefixDigest(key string, through float64) SeriesDigest {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	sh := m.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d := SeriesDigest{Series: key}
	r := sh.store[key]
	if r == nil {
		return d
	}
	h := uint64(offset64)
	mix := func(u uint64) {
		for i := 0; i < 8; i++ {
			h ^= (u >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	n := r.Len()
	for i := 0; i < n; i++ {
		p := r.At(i)
		if p.T > through {
			break
		}
		mix(math.Float64bits(p.T))
		mix(math.Float64bits(p.V))
		d.Count++
		d.Frontier = p.T
	}
	d.Sum = h
	return d
}

// Digests returns summaries of stored series sorted by key: all non-empty
// series when key is "", else just that series (empty slice if absent).
func (m *Memory) Digests(key string) []SeriesDigest {
	if key != "" {
		if d, ok := m.Digest(key); ok {
			return []SeriesDigest{d}
		}
		return nil
	}
	out := make([]SeriesDigest, 0, m.nSeries.Load())
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for k, r := range sh.store {
			if r.Len() > 0 {
				out = append(out, digestOf(k, r))
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series < out[j].Series })
	return out
}

// handleDigest answers OpDigest: per-series digests, all series when the
// request names none. An unknown series is not an error — it answers with
// no digests, which peers read as "nothing stored here yet".
func (m *Memory) handleDigest(req Request) Response {
	return Response{Digests: m.Digests(req.Series)}
}

// handleBackfill answers OpBackfill: a merge-insert behind the frontier
// (hinted-handoff redelivery and repair pulls land here; the store path
// would dedup anything at or before the frontier away).
func (m *Memory) handleBackfill(req Request) Response {
	if req.Series == "" {
		return errResp("backfill requires a series key")
	}
	if len(req.Points) == 0 {
		return errResp("backfill requires points")
	}
	m.backfill(req.Series, req.Points)
	return Response{}
}

// Backfill merge-inserts historical points into a series, bypassing the
// store path's frontier dedup: rebalancing handoff streams a series' past
// while new writes keep landing on its head, so history must be accepted
// behind the frontier without reopening the door to redelivery duplicates
// (points whose timestamps are already present are still skipped). The
// merged series keeps its newest capacity points. Returns how many points
// were actually inserted.
//
// On a durable memory the insertions are committed to the log before the
// call returns. A failed commit cannot be reported through the count; it is
// sticky, so the next mutation through Handle answers with it.
func (m *Memory) Backfill(key string, pts [][2]float64) int {
	added := m.backfill(key, pts)
	if m.journal != nil {
		_ = m.journal.commit()
	}
	return added
}

// backfill is Backfill without the commit, for callers that commit once for
// a whole request.
func (m *Memory) backfill(key string, pts [][2]float64) int {
	if key == "" || len(pts) == 0 {
		return 0
	}
	incoming := append([][2]float64(nil), pts...)
	sort.Slice(incoming, func(i, j int) bool { return incoming[i][0] < incoming[j][0] })
	sh := m.shard(key)
	sh.mu.Lock()
	r := sh.store[key]
	created := false
	if r == nil {
		r = series.NewPointRing(m.capacity)
		sh.store[key] = r
		created = true
	}
	existing := make([]series.Point, r.Len())
	for i := range existing {
		existing[i] = r.At(i)
	}
	merged := make([]series.Point, 0, len(existing)+len(incoming))
	var inserted [][2]float64 // for the journal, in time order
	added := 0
	i, j := 0, 0
	for i < len(existing) || j < len(incoming) {
		switch {
		case j >= len(incoming):
			merged = append(merged, existing[i])
			i++
		case i >= len(existing) || incoming[j][0] < existing[i].T:
			p := series.Point{T: incoming[j][0], V: incoming[j][1]}
			// Collapse duplicate timestamps within the incoming stream too.
			if len(merged) == 0 || merged[len(merged)-1].T < p.T {
				merged = append(merged, p)
				added++
				if m.journal != nil {
					inserted = append(inserted, incoming[j])
				}
			}
			j++
		case incoming[j][0] == existing[i].T:
			merged = append(merged, existing[i]) // already stored: keep ours
			i++
			j++
		default:
			merged = append(merged, existing[i])
			i++
		}
	}
	if len(merged) > m.capacity {
		merged = merged[len(merged)-m.capacity:]
		// History the trim just evicted was never observably inserted;
		// recount so the reported insertions are the ones that survived
		// (merged minus the surviving pre-existing points).
		cut := merged[0].T
		kept := len(existing) - sort.Search(len(existing), func(i int) bool { return existing[i].T >= cut })
		added = len(merged) - kept
		inserted = inserted[sort.Search(len(inserted), func(i int) bool { return inserted[i][0] >= cut }):]
	}
	r.Reset()
	for _, p := range merged {
		r.Push(p)
	}
	if len(inserted) > 0 {
		m.journal.record(recBackfill, key, inserted)
	}
	sh.mu.Unlock()
	if created {
		mMemorySeries.Set(float64(m.nSeries.Add(1)))
	}
	return added
}

// appendSeries appends a copy of a series' points, oldest first, to dst.
func (m *Memory) appendSeries(dst [][2]float64, key string) [][2]float64 {
	sh := m.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.store[key]; r != nil {
		for i, n := 0, r.Len(); i < n; i++ {
			p := r.At(i)
			dst = append(dst, [2]float64{p.T, p.V})
		}
	}
	return dst
}

// Len reports the number of stored points for a series key (0 if absent).
func (m *Memory) Len(key string) int {
	sh := m.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.store[key]; r != nil {
		return r.Len()
	}
	return 0
}

var _ Handler = (*Memory)(nil)
