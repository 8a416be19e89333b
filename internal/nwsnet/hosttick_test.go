package nwsnet

import (
	"fmt"
	"testing"
)

// The v2 store path as the wire_ingest benchmark drives it: a host tick is
// one batch of three one-point stores, one per sensor of a host. The test
// and the benchmarks (make bench-wire) run its three server-side stages —
// decode, Memory.Handle, encode — without sockets, so their costs are counts
// and per-op times that do not depend on a second goroutine being scheduled.

// hostTick returns one host's tick k as the sensor daemon sends it.
func hostTick(k int) Request {
	subs := make([]Request, 3)
	for s, sensor := range [3]string{"load_average", "vmstat", "nws_hybrid"} {
		subs[s] = Request{
			Op:     OpStore,
			Series: SeriesKey("pool-000", sensor),
			Points: [][2]float64{{10 * float64(k), 0.25 + 0.5*float64((k+s)%7)/7}},
		}
	}
	return Request{Op: OpBatch, Batch: subs}
}

// hostTickFrames encodes ticks [0, n) as request payloads.
func hostTickFrames(tb testing.TB, n int) [][]byte {
	frames := make([][]byte, n)
	for k := range frames {
		req := hostTick(k)
		var err error
		if frames[k], err = encodeRequestPayload(nil, uint64(k+1), &req); err != nil {
			tb.Fatal(err)
		}
	}
	return frames
}

// wireStoreBatchAllocs is the allocation count of one warm host tick through
// the server's store path: the batch's sub slice, its three series keys and
// its response slice.
const wireStoreBatchAllocs = 5

// TestWireStoreBatchAllocs gates the allocations of one warm host tick
// through the server's v2 store path: decode with a connection's decoder,
// Memory.Handle into full rings, and encodeResponsePayload into a reused
// buffer. A count does not drift with the machine the way a time does.
func TestWireStoreBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; the plain run holds the gate")
	}
	const capacity, runs = 64, 400
	m := NewMemory(capacity)
	frames := hostTickFrames(t, capacity+runs+1)
	var dec connDecoder
	buf := make([]byte, 0, 256)
	k := 0
	tick := func() {
		var req Request
		id, err := decodeRequest(frames[k], &dec, &req)
		if err != nil {
			t.Fatal(err)
		}
		k++
		resp := m.Handle(req)
		resp.OK = resp.Error == ""
		if buf, err = encodeResponsePayload(buf[:0], id, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Batch) != 3 || !resp.Batch[0].OK || !resp.Batch[1].OK || !resp.Batch[2].OK {
			t.Fatalf("tick %d answered %+v", k, resp)
		}
	}
	// Fill every ring first, so each measured store also evicts.
	for k < capacity {
		tick()
	}
	allocs := testing.AllocsPerRun(runs, tick)
	t.Logf("allocs per host tick: %.2f", allocs)
	if allocs > wireStoreBatchAllocs {
		t.Fatalf("one host tick through decode, Memory.Handle and encode allocates %.2f times; the gate is %d", allocs, wireStoreBatchAllocs)
	}
}

// BenchmarkDecodeHostTick decodes host-tick frames as a server connection
// does, with its points blocks warm.
func BenchmarkDecodeHostTick(b *testing.B) {
	frames := hostTickFrames(b, 64)
	var dec connDecoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req Request
		if _, err := decodeRequest(frames[i%len(frames)], &dec, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryHandleHostTick stores host ticks into full rings, so every
// point also evicts one: the memory's share of a wire_ingest point.
func BenchmarkMemoryHandleHostTick(b *testing.B) {
	benchMemoryRounds(b, []Request{hostTick(0)})
}

// BenchmarkMemoryHandleForecastRound runs a forecaster refresh round's shape
// against full rings: one envelope of 512 one-point stores, one per series,
// then one envelope of 512 fetches of the point just stored.
func BenchmarkMemoryHandleForecastRound(b *testing.B) {
	const nSeries = 512
	stores := make([]Request, nSeries)
	fetches := make([]Request, nSeries)
	for s := range stores {
		key := SeriesKey(fmt.Sprintf("pool-%03d", s), "nws_hybrid")
		stores[s] = Request{Op: OpStore, Series: key, Points: [][2]float64{{0, 0.25 + float64(s%7)/7}}}
		fetches[s] = Request{Op: OpFetch, Series: key}
	}
	benchMemoryRounds(b, []Request{{Op: OpBatch, Batch: stores}, {Op: OpBatch, Batch: fetches}})
}

// benchMemoryRounds sends the round's batch envelopes once per iteration,
// its store subs stamped t = 10k in round k and its fetch subs reading from
// that t on, into a memory whose rings were first filled, so every stored
// point also evicts one. It reports ns per sub-request beside ns per round.
func benchMemoryRounds(b *testing.B, round []Request) {
	const capacity = 2048
	m := NewMemory(capacity)
	subs := 0
	for _, env := range round {
		subs += len(env.Batch)
	}
	k := 0
	run := func() {
		t := 10 * float64(k)
		k++
		for _, env := range round {
			for s := range env.Batch {
				if sub := &env.Batch[s]; sub.Op == OpStore {
					sub.Points[0][0] = t
				} else {
					sub.From = t
				}
			}
			if resp := m.Handle(env); len(resp.Batch) != len(env.Batch) || resp.Batch[0].Error != "" {
				b.Fatalf("round %d answered %+v", k, resp)
			}
		}
	}
	for _, env := range round {
		for _, sub := range env.Batch {
			if sub.Op == OpStore {
				pts := make([][2]float64, capacity)
				for i := range pts {
					pts[i] = [2]float64{10 * float64(i-capacity), 0.5}
				}
				m.Handle(Request{Op: OpStore, Series: sub.Series, Points: pts})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*subs), "ns/sub")
}

// BenchmarkEncodeBatchResponse encodes a host tick's answer, three acked
// subs, into a reused buffer.
func BenchmarkEncodeBatchResponse(b *testing.B) {
	resp := Response{OK: true, Batch: []Response{{OK: true}, {OK: true}, {OK: true}}}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = encodeResponsePayload(buf[:0], uint64(i+1), &resp); err != nil {
			b.Fatal(err)
		}
	}
}
