package nwsnet

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// countingFetch counts the batch pulls a forecaster issues, and the
// sub-fetches they carry.
type countingFetch struct {
	FetchBackend
	batches, subs atomic.Int64
}

func (c *countingFetch) FetchBatch(ctx context.Context, fetches []BatchFetch) ([]FetchResult, error) {
	c.batches.Add(1)
	c.subs.Add(int64(len(fetches)))
	return c.FetchBackend.FetchBatch(ctx, fetches)
}

// tracked reports how many series the forecaster keeps an engine for.
func tracked(f *ForecasterService) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.order)
}

// TestEveryReadIsOneFetchBatch: Warm, a cache miss and a refresh pass each
// read the memory with exactly one FetchBatch, whatever the number of
// series they read.
func TestEveryReadIsOneFetchBatch(t *testing.T) {
	mem := NewMemory(0)
	fb := &countingFetch{FetchBackend: NewLocalBackend(mem)}
	f := NewForecasterServiceBackend(fb, 0)
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		mustStore(t, mem, k, [2]float64{1, 0.5}, [2]float64{2, 0.5})
	}
	mustStore(t, mem, "d", [2]float64{1, 0.5})

	for _, read := range []struct {
		name     string
		do       func() error
		wantSubs int64
	}{
		{"warm", func() error {
			_, err := f.Warm(context.Background(), keys)
			return err
		}, 3},
		{"miss", func() error {
			if resp := f.Handle(Request{Op: OpForecast, Series: "d"}); resp.Error != "" {
				return fmt.Errorf("%s", resp.Error)
			}
			return nil
		}, 1},
		{"refresh", func() error { f.RefreshNow(); return nil }, 4},
	} {
		batches0, subs0 := fb.batches.Load(), fb.subs.Load()
		if err := read.do(); err != nil {
			t.Fatalf("%s: %v", read.name, err)
		}
		if batches, subs := fb.batches.Load()-batches0, fb.subs.Load()-subs0; batches != 1 || subs != read.wantSubs {
			t.Fatalf("%s issued %d FetchBatch calls carrying %d fetches, want 1 carrying %d", read.name, batches, subs, read.wantSubs)
		}
	}
}

// TestUnknownSeriesPollLeavesNoEngine: a poll for a series the memory does
// not hold answers the memory's rejection and leaves nothing behind, so no
// client can grow the forecaster's state, or every later refresh pass, by
// naming series that do not exist. A poll that finds points tracks its
// series from then on.
func TestUnknownSeriesPollLeavesNoEngine(t *testing.T) {
	mem := NewMemory(0)
	fb := &countingFetch{FetchBackend: NewLocalBackend(mem)}
	f := NewForecasterServiceBackend(fb, 0)
	f.SetCacheServing(true)
	mustStore(t, mem, "known", [2]float64{1, 0.5}, [2]float64{2, 0.5})

	for i := 0; i < 1000; i++ {
		resp := f.Handle(Request{Op: OpForecast, Series: fmt.Sprintf("unknown%04d", i)})
		if !strings.HasPrefix(resp.Error, "forecast: memory fetch: ") || !strings.Contains(resp.Error, "unknown series") {
			t.Fatalf("poll of an unknown series answered %q, want the memory's rejection", resp.Error)
		}
	}
	if n := tracked(f); n != 0 {
		t.Fatalf("1000 polls of unknown series left %d engines behind", n)
	}
	subs0 := fb.subs.Load()
	f.RefreshNow()
	if got := fb.subs.Load() - subs0; got != 0 {
		t.Fatalf("a refresh pass after the unknown polls fetched %d series, want 0", got)
	}

	if resp := f.Handle(Request{Op: OpForecast, Series: "known"}); resp.Forecast == nil || resp.Forecast.N != 2 {
		t.Fatalf("poll of a stored series = %+v, want a forecast over 2 points", resp)
	}
	if n := tracked(f); n != 1 {
		t.Fatalf("a poll that found points left %d engines, want 1", n)
	}
	subs0 = fb.subs.Load()
	f.RefreshNow()
	if got := fb.subs.Load() - subs0; got != 1 {
		t.Fatalf("a refresh pass fetched %d series, want the 1 tracked", got)
	}
}

// barrierFetch holds each FetchBatch until every one of the calls it was
// armed for has arrived.
type barrierFetch struct {
	FetchBackend
	arrived sync.WaitGroup
}

func (b *barrierFetch) FetchBatch(ctx context.Context, fetches []BatchFetch) ([]FetchResult, error) {
	b.arrived.Done()
	b.arrived.Wait()
	return b.FetchBackend.FetchBatch(ctx, fetches)
}

// TestConcurrentFirstPollsTrackOneEngine: polls racing for a series no
// engine has read yet each pull into a state of their own; the series ends
// tracked exactly once, and every poll answers a forecast over all its
// points.
func TestConcurrentFirstPollsTrackOneEngine(t *testing.T) {
	const polls = 8
	mem := NewMemory(0)
	fb := &barrierFetch{FetchBackend: NewLocalBackend(mem)}
	fb.arrived.Add(polls) // every poll is inside its pull before any applies
	f := NewForecasterServiceBackend(fb, 0)
	mustStore(t, mem, "s", [2]float64{1, 0.5}, [2]float64{2, 0.25}, [2]float64{3, 0.5})
	var wg sync.WaitGroup
	for g := 0; g < polls; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := f.Handle(Request{Op: OpForecast, Series: "s"}); resp.Forecast == nil || resp.Forecast.N != 3 {
				t.Errorf("racing first poll = %+v, want a forecast over 3 points", resp)
			}
		}()
	}
	wg.Wait()
	if n := tracked(f); n != 1 {
		t.Fatalf("racing first polls tracked %d engines, want 1", n)
	}
}

// busySink is a push sink whose connection is busy for the batches it is
// told to drop, and delivers every other batch whole.
type busySink struct {
	mu   sync.Mutex
	busy int // batches still to drop
	got  []PushItem
}

func (s *busySink) PushBatch(items []PushItem) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy > 0 {
		s.busy--
		return 0, nil
	}
	s.got = append(s.got, items...)
	return len(items), nil
}

// take returns the frames delivered since the last take.
func (s *busySink) take() []PushItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	got := s.got
	s.got = nil
	return got
}

// TestDroppedPushResentWhenQuiet: a push dropped because its subscriber's
// connection was busy reaches the subscriber on the next pass, even when
// the series has gone quiet — once, carrying the forecast it missed. A
// newer forecast of the series supersedes it, and a subscription gone since
// gets nothing. Every frame a pass attempts is counted in exactly one of the
// pushed and dropped totals.
func TestDroppedPushResentWhenQuiet(t *testing.T) {
	for _, row := range []struct {
		name        string
		between     func(t *testing.T, mem *Memory, f *ForecasterService, sink *busySink)
		wantN       int // N of the one frame the next pass delivers; 0: none
		wantPushed2 uint64
	}{
		{"quiet", func(*testing.T, *Memory, *ForecasterService, *busySink) {}, 4, 1},
		{"superseded", func(t *testing.T, mem *Memory, _ *ForecasterService, _ *busySink) {
			mustStore(t, mem, "a", [2]float64{5, 0.5})
		}, 5, 1},
		{"unsubscribed", func(_ *testing.T, _ *Memory, f *ForecasterService, sink *busySink) {
			f.Unsubscribe(Request{Op: OpUnsubscribe, Series: "a"}, sink)
		}, 0, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			mem := NewMemory(0)
			f := NewForecasterServiceBackend(NewLocalBackend(mem), 0)
			f.SetCacheServing(true)
			sink := &busySink{}
			for i, k := range []string{"a", "b"} {
				mustStore(t, mem, k, [2]float64{1, 0.5}, [2]float64{2, 0.5}, [2]float64{3, 0.5})
				if resp := f.Subscribe(Request{Op: OpSubscribe, Series: k}, uint64(i+1), sink); resp.Forecast == nil {
					t.Fatalf("subscribe %s: %+v", k, resp)
				}
			}
			defer f.DropSink(sink)

			mustStore(t, mem, "a", [2]float64{4, 0.5})
			sink.busy = 1
			pushes0, drops0 := mFcPushes.Value(), mFcPushesDropped.Value()
			f.RefreshNow()
			if pushed, dropped := mFcPushes.Value()-pushes0, mFcPushesDropped.Value()-drops0; pushed != 0 || dropped != 1 {
				t.Fatalf("busy pass: pushes_total +%d, pushes_dropped_total +%d; want +0 and +1", pushed, dropped)
			}

			row.between(t, mem, f, sink)
			pushes0, drops0 = mFcPushes.Value(), mFcPushesDropped.Value()
			f.RefreshNow()
			got := sink.take()
			if pushed, dropped := mFcPushes.Value()-pushes0, mFcPushesDropped.Value()-drops0; pushed != row.wantPushed2 || dropped != 0 {
				t.Fatalf("next pass: pushes_total +%d, pushes_dropped_total +%d; want +%d and +0", pushed, dropped, row.wantPushed2)
			}
			if row.wantN == 0 {
				if len(got) != 0 {
					t.Fatalf("next pass delivered %d frames to a subscription that is gone", len(got))
				}
			} else {
				if len(got) != 1 || got[0].ID != 1 {
					t.Fatalf("next pass delivered %+v, want one frame for subscription 1", got)
				}
				_, resp, err := decodeResponsePayload(append(putUvarint(nil, got[0].ID), got[0].Body...))
				if err != nil || resp.Forecast == nil || resp.Forecast.N != row.wantN {
					t.Fatalf("re-sent frame carries %+v, %v; want the forecast over %d points", resp.Forecast, err, row.wantN)
				}
			}

			f.RefreshNow()
			if got := sink.take(); len(got) != 0 {
				t.Fatalf("a third pass with nothing new delivered %d frames", len(got))
			}
		})
	}
}
