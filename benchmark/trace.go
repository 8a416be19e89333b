package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the benchmark can see from outside.
const (
	spWireRequest  uint8 = iota // client: MuxConn.Go issued -> Wait returned
	spMemoryStore               // handler wrapper: Memory.Handle, store (or batch of stores)
	spMemoryFetch               // handler wrapper: Memory.Handle, fetch (or batch of fetches)
	spReplicaTail               // client: ReplicaGroup.Fetch, most recent 64
	spReplicaRange              // client: ReplicaGroup.Fetch, 1024-point mid-history range
	spReplicaStore              // client: ReplicaGroup.StoreBatch, one host tick
	spClientCall                // transport wrapper: one Client call to one replica
	spTickStore                 // forecast rounds: LocalBackend.StoreBatch of the round's tick
	spRefresh                   // ForecasterService.RefreshNow
	spFetchBatch                // FetchBackend wrapper: the refresher's batch fetch
	spPoll                      // one goroutine's share of a round's forecast polls
	spPushDeliver               // RefreshNow returned -> last push of the round received
	spPersistStore              // handler wrapper: PersistentMemory.Handle, one host tick
	spPersistOpen               // NewPersistentMemory -> first fetch answered
	spPersistClose              // PersistentMemory.Close
	spCount
)

var spanNames = [spCount]string{
	"wire.request", "memory.handle.store", "memory.handle.fetch",
	"replica.tail", "replica.range", "replica.store", "client.call",
	"tick.store", "forecaster.refresh", "forecaster.fetch_batch", "forecaster.poll",
	"push.deliver", "persist.handle", "persist.open", "persist.close",
}

// Parent values besides a span index.
const (
	noParent      int32 = -1
	parentByTrace int32 = -2 // resolved after the pass: the root span with the same trace id
)

// laneServer marks a span recorded off the client goroutines.
const laneServer = 255

type span struct {
	Name   uint8
	Lane   uint8  // client goroutine that caused the span, or laneServer
	Units  uint32 // work units the span covers (points, polls, series)
	Parent int32
	Trace  uint64 // per-request id shared by every span of one request
	Start  int64  // ns since the tracer's epoch
	End    int64
}

// tracer records spans into a preallocated buffer; a nil tracer records
// nothing, so the untraced passes run the same code.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) begin(name, lane uint8, parent int32, trace uint64) int32 {
	if t == nil {
		return noParent
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return noParent
	}
	t.spans[i] = span{Name: name, Lane: lane, Parent: parent, Trace: trace, Start: int64(time.Since(t.epoch))}
	return int32(i)
}

func (t *tracer) end(i int32, units int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].Units = uint32(units)
	t.spans[i].End = int64(time.Since(t.epoch))
}

// recorded returns the spans written so far. Call it only once every
// goroutine that records has finished.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// nameSummary aggregates the spans of one name.
type nameSummary struct {
	N       int     `json:"n"`
	Units   int64   `json:"units"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"` // duration minus the part child spans cover
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	SelfP50 float64 `json:"self_p50_us"`
}

type traceSummary struct {
	ByName map[string]*nameSummary
	// CoveredNs is the time the trace accounts for on the request paths: the
	// union of the root spans of each lane below pathLanes, summed over lanes.
	CoveredNs int64
	// durs and selfs hold every span's duration and self time by name,
	// ascending, for quantiles over several names at once.
	durs, selfs [][]int64
}

// summarize resolves by-trace parents, computes self times, and aggregates
// by name. Children of one span never overlap each other on these paths
// (each layer calls the next synchronously), so self time is the duration
// minus the children's durations clipped to the parent's interval.
func summarize(spans []span, pathLanes int) traceSummary {
	roots := make(map[uint64]int32)
	for i := range spans {
		if s := &spans[i]; s.Parent == noParent && s.Lane != laneServer {
			roots[s.Trace] = int32(i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Parent == parentByTrace {
			if r, ok := roots[s.Trace]; ok {
				s.Parent = r
			} else {
				s.Parent = noParent
			}
		}
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			p := &spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				self[s.Parent] -= hi - lo
			}
		}
	}
	sum := traceSummary{ByName: make(map[string]*nameSummary)}
	// A lane begins its root spans in time order, so one sweep per lane
	// gives the union even where pipelined requests overlap.
	coveredTo := make([]int64, pathLanes)
	durs := make([][]int64, spCount)
	selfs := make([][]int64, spCount)
	sum.durs, sum.selfs = durs, selfs
	for i := range spans {
		s := &spans[i]
		ns := sum.ByName[spanNames[s.Name]]
		if ns == nil {
			ns = &nameSummary{}
			sum.ByName[spanNames[s.Name]] = ns
		}
		ns.N++
		ns.Units += int64(s.Units)
		ns.TotalNs += s.End - s.Start
		ns.SelfNs += self[i]
		durs[s.Name] = append(durs[s.Name], s.End-s.Start)
		selfs[s.Name] = append(selfs[s.Name], self[i])
		if s.Parent == noParent && int(s.Lane) < pathLanes {
			if from := max(s.Start, coveredTo[s.Lane]); s.End > from {
				sum.CoveredNs += s.End - from
				coveredTo[s.Lane] = s.End
			}
		}
	}
	for name, ds := range durs {
		if len(ds) == 0 {
			continue
		}
		slices.Sort(ds)
		slices.Sort(selfs[name])
		ns := sum.ByName[spanNames[name]]
		ns.P50Us = float64(quantileSorted(ds, 0.50)) / 1e3
		ns.P99Us = float64(quantileSorted(ds, 0.99)) / 1e3
		ns.SelfP50 = float64(quantileSorted(selfs[name], 0.50)) / 1e3
	}
	return sum
}

// get returns the summary of a span name, zero when the name never occurred.
func (s traceSummary) get(name uint8) nameSummary {
	if ns := s.ByName[spanNames[name]]; ns != nil {
		return *ns
	}
	return nameSummary{}
}

// quantileUs is the q-quantile, in microseconds, of the durations (or self
// times) of all spans with one of the given names.
func (s traceSummary) quantileUs(q float64, self bool, names ...uint8) float64 {
	src := s.durs
	if self {
		src = s.selfs
	}
	var all []int64
	for _, name := range names {
		all = append(all, src[name]...)
	}
	slices.Sort(all)
	return float64(quantileSorted(all, q)) / 1e3
}

// traceFileSpans bounds the spans written out: the by_name summary covers
// every span, and the head of the buffer is enough to read whole requests.
const traceFileSpans = 4096

type traceFileSpan struct {
	Name    string `json:"name"`
	Lane    uint8  `json:"lane"`
	Units   uint32 `json:"units"`
	Parent  int32  `json:"parent"`
	Trace   uint64 `json:"trace"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func writeTraceFile(path string, workload string, spans []span, sum traceSummary, dropped int64) error {
	head := spans
	if len(head) > traceFileSpans {
		head = head[:traceFileSpans]
	}
	out := struct {
		Workload string                  `json:"workload"`
		Spans    int                     `json:"spans"`
		Dropped  int64                   `json:"spans_dropped"`
		ByName   map[string]*nameSummary `json:"by_name"`
		Head     []traceFileSpan         `json:"head"`
	}{Workload: workload, Spans: len(spans), Dropped: dropped, ByName: sum.ByName}
	for _, s := range head {
		out.Head = append(out.Head, traceFileSpan{spanNames[s.Name], s.Lane, s.Units, s.Parent, s.Trace, s.Start, s.End})
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
