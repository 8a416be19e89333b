package nwsnet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestMemoryConcurrentStoreFetch is the regression test for the fetch race:
// the seed handleFetch read the series tail outside the memory lock, so a
// concurrent store's append could move the backing array under the reader.
// This fails under -race on the seed code and must stay silent now that
// fetches copy out under the shard read lock.
func TestMemoryConcurrentStoreFetch(t *testing.T) {
	m := NewMemory(64) // small capacity so eviction churns the buffer
	const (
		writers = 2
		readers = 6
		rounds  = 5000
	)
	var wg sync.WaitGroup
	// All goroutines hammer ONE series, the shape that reliably trips the
	// seed race within a few thousand rounds.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp := m.Handle(Request{Op: OpStore, Series: "race",
					Points: [][2]float64{{float64(writers*i + w), float64(i)}}})
				if resp.Error != "" {
					t.Errorf("store: %s", resp.Error)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// To == 0 is the open-ended range that took the racy
				// tail-read path in the seed code.
				m.Handle(Request{Op: OpFetch, Series: "race"})
				m.Handle(Request{Op: OpFetch, Series: "race", From: float64(i / 2), Max: 10})
			}
		}()
	}
	wg.Wait()
}

// TestMemoryIdempotentRedelivery is the regression test for non-idempotent
// stores: redelivering a batch whose prefix was already applied (the
// timed-out-but-applied case every at-least-once retry produces) must leave
// exactly one copy of each point. The seed code rejected the whole batch
// with "out-of-order append", wedging the writer's backlog forever.
func TestMemoryIdempotentRedelivery(t *testing.T) {
	m := NewMemory(0)
	deduped0 := mMemoryPointsDeduped.Value()

	first := [][2]float64{{1, 0.1}, {2, 0.2}}
	if resp := m.Handle(Request{Op: OpStore, Series: "k", Points: first}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	// The retry redelivers the applied points plus one new one.
	redelivered := [][2]float64{{1, 0.1}, {2, 0.2}, {3, 0.3}}
	if resp := m.Handle(Request{Op: OpStore, Series: "k", Points: redelivered}); resp.Error != "" {
		t.Fatalf("redelivery rejected: %s", resp.Error)
	}
	resp := m.Handle(Request{Op: OpFetch, Series: "k"})
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	want := [][2]float64{{1, 0.1}, {2, 0.2}, {3, 0.3}}
	if len(resp.Points) != len(want) {
		t.Fatalf("series holds %v, want %v", resp.Points, want)
	}
	for i, tv := range want {
		if resp.Points[i] != tv {
			t.Fatalf("point %d = %v, want %v", i, resp.Points[i], tv)
		}
	}
	if got := mMemoryPointsDeduped.Value() - deduped0; got != 2 {
		t.Fatalf("nws_memory_points_deduped_total grew by %d, want 2", got)
	}
}

// TestMemoryFetchRangeSemantics pins the documented range contract:
// [from, to) with to == 0 open-ended, Max keeping the most recent, and an
// inverted range answering empty instead of panicking (the seed code sliced
// points[lo:hi] with lo > hi — a remotely triggerable crash).
func TestMemoryFetchRangeSemantics(t *testing.T) {
	m := NewMemory(0)
	for i := 1; i <= 5; i++ {
		if resp := m.Handle(Request{Op: OpStore, Series: "k",
			Points: [][2]float64{{float64(i), float64(i)}}}); resp.Error != "" {
			t.Fatal(resp.Error)
		}
	}
	cases := []struct {
		name     string
		from, to float64
		max      int
		want     []float64 // expected timestamps
	}{
		{"open-ended", 0, 0, 0, []float64{1, 2, 3, 4, 5}},
		{"half-open upper", 2, 4, 0, []float64{2, 3}},
		{"from only", 3, 0, 0, []float64{3, 4, 5}},
		{"max keeps latest", 0, 0, 2, []float64{4, 5}},
		{"max within range", 1, 5, 2, []float64{3, 4}},
		{"inverted range", 5, 2, 0, nil},
		{"empty range", 2.5, 2.5, 0, nil},
		{"past the end", 99, 0, 0, nil},
	}
	for _, tc := range cases {
		resp := m.Handle(Request{Op: OpFetch, Series: "k", From: tc.from, To: tc.to, Max: tc.max})
		if resp.Error != "" {
			t.Fatalf("%s: %s", tc.name, resp.Error)
		}
		if len(resp.Points) != len(tc.want) {
			t.Fatalf("%s: got %v, want timestamps %v", tc.name, resp.Points, tc.want)
		}
		for i, ts := range tc.want {
			if resp.Points[i][0] != ts {
				t.Fatalf("%s: point %d = %v, want t=%g", tc.name, i, resp.Points[i], ts)
			}
		}
	}
}

// TestMemoryBatchEnvelope exercises OpBatch directly against the handler:
// mixed sub-ops, per-sub errors with per-sub OK flags, request-order
// responses, and rejection of nesting and empty envelopes.
func TestMemoryBatchEnvelope(t *testing.T) {
	m := NewMemory(0)
	resp := m.Handle(Request{Op: OpBatch, Batch: []Request{
		{Op: OpStore, Series: "a", Points: [][2]float64{{1, 0.5}}},
		{Op: OpStore, Series: "b", Points: [][2]float64{{1, 0.6}, {2, 0.7}}},
		{Op: OpStore, Series: ""}, // invalid: no key
		{Op: OpFetch, Series: "missing"},
	}})
	if resp.Error != "" {
		t.Fatalf("envelope error: %s", resp.Error)
	}
	if len(resp.Batch) != 4 {
		t.Fatalf("got %d sub-responses, want 4", len(resp.Batch))
	}
	if resp.Batch[0].Error != "" || !resp.Batch[0].OK {
		t.Fatalf("sub 0 = %+v, want ok", resp.Batch[0])
	}
	if resp.Batch[1].Error != "" || !resp.Batch[1].OK {
		t.Fatalf("sub 1 = %+v, want ok", resp.Batch[1])
	}
	if resp.Batch[2].Error == "" || resp.Batch[2].OK {
		t.Fatalf("sub 2 = %+v, want per-sub error", resp.Batch[2])
	}
	if resp.Batch[3].Error == "" {
		t.Fatalf("sub 3 = %+v, want unknown-series error", resp.Batch[3])
	}
	if m.Len("a") != 1 || m.Len("b") != 2 {
		t.Fatalf("stored lens a=%d b=%d, want 1 and 2", m.Len("a"), m.Len("b"))
	}

	// A fetch sub must return its series' points in order.
	resp = m.Handle(Request{Op: OpBatch, Batch: []Request{
		{Op: OpFetch, Series: "b"},
		{Op: OpFetch, Series: "a"},
	}})
	if len(resp.Batch) != 2 || len(resp.Batch[0].Points) != 2 || len(resp.Batch[1].Points) != 1 {
		t.Fatalf("batch fetch = %+v", resp.Batch)
	}

	if resp := m.Handle(Request{Op: OpBatch}); resp.Error == "" {
		t.Fatal("empty batch accepted")
	}
	resp = m.Handle(Request{Op: OpBatch, Batch: []Request{
		{Op: OpBatch, Batch: []Request{{Op: OpPing}}},
	}})
	if resp.Error != "" || len(resp.Batch) != 1 || resp.Batch[0].Error == "" {
		t.Fatalf("nested batch = %+v, want per-sub rejection", resp)
	}
}

// TestMemoryBatchWideEnvelope stores one point into each of 100 series in
// one envelope, enough distinct series to cross every shard.
func TestMemoryBatchWideEnvelope(t *testing.T) {
	m := NewMemory(0)
	const n = 100
	subs := make([]Request, n)
	for i := range subs {
		subs[i] = Request{Op: OpStore, Series: fmt.Sprintf("wide/%d", i),
			Points: [][2]float64{{1, float64(i)}}}
	}
	resp := m.Handle(Request{Op: OpBatch, Batch: subs})
	if resp.Error != "" || len(resp.Batch) != n {
		t.Fatalf("wide batch = %+v", resp.Error)
	}
	for i, r := range resp.Batch {
		if r.Error != "" {
			t.Fatalf("sub %d: %s", i, r.Error)
		}
	}
	for i := 0; i < n; i++ {
		if m.Len(fmt.Sprintf("wide/%d", i)) != 1 {
			t.Fatalf("series %d not stored", i)
		}
	}
}

// TestBatchAppliesSubRequestsInOrder sends envelopes of eight one-point
// stores to one series (t = 10…80). A batch must have the effects of its
// subs sent one after another, so every sub is acked and every point is
// kept: if two subs applied out of order, the later point would dedup the
// earlier one away while both still answered OK. The durable row checks the
// same of what a reopened log replays.
func TestBatchAppliesSubRequestsInOrder(t *testing.T) {
	const envelopes, subsPer = 2000, 8
	key := func(e int) string { return fmt.Sprintf("order/%d", e) }
	envelope := func(e int) Request {
		subs := make([]Request, subsPer)
		for i := range subs {
			subs[i] = Request{Op: OpStore, Series: key(e),
				Points: [][2]float64{{float64(10 * (i + 1)), float64(i) / subsPer}}}
		}
		return Request{Op: OpBatch, Batch: subs}
	}
	// The same points stored one request at a time.
	want := NewMemory(0)
	for i, sub := range envelope(0).Batch {
		if resp := want.Handle(sub); resp.Error != "" {
			t.Fatalf("reference store %d: %s", i, resp.Error)
		}
	}
	wantDigest, _ := want.Digest(key(0))

	send := func(t *testing.T, h Handler) {
		for e := 0; e < envelopes; e++ {
			resp := h.Handle(envelope(e))
			if resp.Error != "" || len(resp.Batch) != subsPer {
				t.Fatalf("envelope %d = %+v", e, resp)
			}
			for i, r := range resp.Batch {
				if !r.OK {
					t.Fatalf("envelope %d sub %d not acked: %q", e, i, r.Error)
				}
			}
		}
	}
	check := func(t *testing.T, m *Memory) {
		lost := 0
		for e := 0; e < envelopes; e++ {
			got, _ := m.Digest(key(e))
			got.Series = wantDigest.Series
			if m.Len(key(e)) != subsPer || got != wantDigest {
				lost++
			}
		}
		if lost > 0 {
			t.Fatalf("%d of %d envelopes kept fewer or other points than their subs sent one at a time", lost, envelopes)
		}
	}

	t.Run("memory", func(t *testing.T) {
		m := NewMemory(0)
		send(t, m)
		check(t, m)
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		pm, err := NewPersistentMemory(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		send(t, pm)
		if err := pm.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, openPersistent(t, 0, dir).Memory)
	})
}

// TestClientBatchRoundTrip drives StoreBatch and FetchBatch through a real
// server: per-sub results must line up with the inputs on both paths.
func TestClientBatchRoundTrip(t *testing.T) {
	m := NewMemory(0)
	addr := startServer(t, m)
	c := NewClient(time.Second)
	defer c.Close()

	errs, err := c.StoreBatch(addr, []BatchStore{
		{Series: "x", Points: [][2]float64{{1, 10}, {2, 20}}},
		{Series: "", Points: [][2]float64{{1, 1}}}, // invalid
		{Series: "y", Points: [][2]float64{{5, 50}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 3 || errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("per-sub errors = %v", errs)
	}

	results, err := c.FetchBatch(addr, []BatchFetch{
		{Series: "x"},
		{Series: "nope"},
		{Series: "x", From: 2},
		{Series: "y", Max: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || len(results[0].Points) != 2 {
		t.Fatalf("result 0 = %+v", results[0])
	}
	if results[1].Err == nil {
		t.Fatal("fetch of unknown series succeeded in batch")
	}
	if results[2].Err != nil || len(results[2].Points) != 1 || results[2].Points[0][0] != 2 {
		t.Fatalf("result 2 = %+v", results[2])
	}
	if results[3].Err != nil || len(results[3].Points) != 1 || results[3].Points[0][0] != 5 {
		t.Fatalf("result 3 = %+v", results[3])
	}

	// Empty inputs are a no-op, not a wire call.
	if errs, err := c.StoreBatch(addr, nil); errs != nil || err != nil {
		t.Fatalf("empty StoreBatch = %v, %v", errs, err)
	}
	if res, err := c.FetchBatch(addr, nil); res != nil || err != nil {
		t.Fatalf("empty FetchBatch = %v, %v", res, err)
	}
}

// TestPersistentMemoryBatchSurvivesRestart stores through a batch envelope
// and verifies the sub-stores were logged durably.
func TestPersistentMemoryBatchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	pm, err := NewPersistentMemory(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	resp := pm.Handle(Request{Op: OpBatch, Batch: []Request{
		{Op: OpStore, Series: "p/one", Points: [][2]float64{{1, 0.1}, {2, 0.2}}},
		{Op: OpStore, Series: "p/two", Points: [][2]float64{{1, 0.9}}},
		{Op: OpFetch, Series: "p/one"}, // reads must not end up in the log
	}})
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	for i := 0; i < 2; i++ {
		if resp.Batch[i].Error != "" {
			t.Fatalf("sub %d: %s", i, resp.Batch[i].Error)
		}
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}

	pm2, err := NewPersistentMemory(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer pm2.Close()
	if pm2.Len("p/one") != 2 || pm2.Len("p/two") != 1 {
		t.Fatalf("after restart: one=%d two=%d, want 2 and 1", pm2.Len("p/one"), pm2.Len("p/two"))
	}
}

// TestForecasterWarm preloads history through the batched catch-up and
// verifies the first query after warming needs no further points.
func TestForecasterWarm(t *testing.T) {
	m := NewMemory(0)
	memAddr := startServer(t, m)
	for i := 1; i <= 30; i++ {
		if resp := m.Handle(Request{Op: OpStore, Series: "w/cpu/h",
			Points: [][2]float64{{float64(i), 0.5}}}); resp.Error != "" {
			t.Fatal(resp.Error)
		}
	}
	f := NewForecasterService(memAddr, time.Second)
	n, err := f.Warm(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("Warm consumed %d points, want 30", n)
	}
	// Warming again is a no-op: everything is already behind the frontier.
	n, err = f.Warm(context.Background(), []string{"w/cpu/h"})
	if err != nil || n != 0 {
		t.Fatalf("second Warm = %d, %v, want 0 points", n, err)
	}
	resp := f.Handle(Request{Op: OpForecast, Series: "w/cpu/h"})
	if resp.Error != "" || resp.Forecast == nil || resp.Forecast.N != 30 {
		t.Fatalf("forecast after warm = %+v", resp)
	}
}
