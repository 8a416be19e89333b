package nwsnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"nwscpu/internal/forecast"
)

// checkSink is a PushSink that decodes every frame it is handed and keeps
// the forecasts per subscription ID.
type checkSink struct {
	mu  sync.Mutex
	got map[uint64][]ForecastResult
	bad []string
}

func (s *checkSink) PushBatch(items []PushItem) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range items {
		payload := append(binary.AppendUvarint(nil, it.ID), it.Body...)
		id, resp, err := decodeResponsePayload(payload)
		if err != nil || id != it.ID || !resp.OK || resp.Forecast == nil {
			s.bad = append(s.bad, fmt.Sprintf("id %d: %+v, %v", it.ID, resp, err))
			continue
		}
		if s.got == nil {
			s.got = make(map[uint64][]ForecastResult)
		}
		s.got[it.ID] = append(s.got[it.ID], *resp.Forecast)
	}
	return len(items), nil
}

// TestRefreshMatchesOffline drives RefreshNow over 512 series under
// GOMAXPROCS 1, 2 and 4 while forecast polls, subscribe/unsubscribe churn
// and a DropSink race it. The apply step must be atomic to all of them:
// every forecast served or pushed is bit-identical to an offline
// forecast.Engine fed the same points, pushes arrive in tick order, and Warm
// reports exactly the points it consumed. Run under -race.
func TestRefreshMatchesOffline(t *testing.T) {
	const (
		series  = 512
		history = 24
		rounds  = 12
	)
	keys := make([]string, series)
	for i := range keys {
		keys[i] = fmt.Sprintf("h%03d/cpu/m", i)
	}
	// A cheap deterministic load-like signal, different per series.
	val := func(i, tick int) float64 {
		x := uint64(i+1)*0x9e3779b97f4a7c15 + uint64(tick)*0xbf58476d1ce4e5b9
		x ^= x >> 31
		x *= 0x94d049bb133111eb
		x ^= x >> 29
		return float64(x%1000) / 1000
	}
	// offline[i][n] is the forecast of series i after n points.
	offline := make([][]ForecastResult, series)
	for i := range offline {
		eng := forecast.NewDefaultEngine()
		offline[i] = make([]ForecastResult, history+rounds+1)
		for tick := 1; tick <= history+rounds; tick++ {
			eng.Update(val(i, tick))
			p, ok := eng.Forecast()
			if !ok {
				t.Fatalf("offline engine has no forecast after %d points", tick)
			}
			offline[i][tick] = ForecastResult{Value: p.Value, Method: p.Method, MAE: p.MAE, N: eng.N()}
		}
	}
	check := func(i int, got ForecastResult) error {
		if got.N < 1 || got.N > history+rounds || got != offline[i][got.N] {
			return fmt.Errorf("series %s: served %+v, offline has no such forecast", keys[i], got)
		}
		return nil
	}

	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			mem := NewMemory(0)
			store := func(tick int) {
				for i, k := range keys {
					mem.Handle(Request{Op: OpStore, Series: k, Points: [][2]float64{{float64(tick), val(i, tick)}}})
				}
			}
			for tick := 1; tick <= history; tick++ {
				store(tick)
			}
			f := NewForecasterServiceBackend(NewLocalBackend(mem), 0)
			f.SetCacheServing(true)
			// Repeated keys must not be counted twice.
			n, err := f.Warm(context.Background(), append(append([]string{}, keys...), keys[:16]...))
			if err != nil || n != series*history {
				t.Fatalf("Warm = %d, %v; want %d points", n, err, series*history)
			}

			all := &checkSink{}
			doomed := &checkSink{}
			for i, k := range keys {
				for _, sink := range []*checkSink{all, doomed} {
					if resp := f.Subscribe(Request{Op: OpSubscribe, Series: k}, uint64(i), sink); resp.Error != "" || resp.Forecast == nil {
						t.Fatalf("subscribe %s: %+v", k, resp)
					}
				}
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			racer := func(body func(k int)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; ; k++ {
						select {
						case <-stop:
							return
						default:
						}
						body(k)
					}
				}()
			}
			for g := 0; g < 2; g++ {
				racer(func(k int) {
					i := (k*7 + g) % series
					resp := f.Handle(Request{Op: OpForecast, Series: keys[i]})
					if resp.Error != "" || resp.Forecast == nil {
						t.Errorf("poll %s: %+v", keys[i], resp)
					} else if err := check(i, *resp.Forecast); err != nil {
						t.Error(err)
					}
				})
			}
			churn := &checkSink{}
			racer(func(k int) {
				i := (k * 13) % series
				req := Request{Op: OpSubscribe, Series: keys[i]}
				if resp := f.Subscribe(req, uint64(i), churn); resp.Error != "" {
					t.Errorf("churn subscribe: %s", resp.Error)
				}
				f.Unsubscribe(req, churn)
			})

			for r := 1; r <= rounds; r++ {
				store(history + r)
				if r == rounds/2 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						f.DropSink(doomed)
					}()
				}
				f.RefreshNow()
			}
			close(stop)
			wg.Wait()

			if got := f.Subscriptions(); got != series {
				t.Fatalf("subscriptions = %d, want %d (all kept, doomed dropped, churn unsubscribed)", got, series)
			}
			for _, s := range []*checkSink{all, doomed, churn} {
				for _, b := range s.bad {
					t.Errorf("malformed push: %s", b)
				}
				for id, pushes := range s.got {
					last := 0
					for _, p := range pushes {
						if err := check(int(id), p); err != nil {
							t.Error(err)
						}
						if p.N <= last && s != churn {
							t.Errorf("series %s: push N %d after %d, want strictly increasing", keys[id], p.N, last)
						}
						last = p.N
					}
				}
			}
			// The subscriber that stayed saw every tick of every series.
			for i := range keys {
				pushes := all.got[uint64(i)]
				if len(pushes) != rounds || pushes[rounds-1] != offline[i][history+rounds] {
					t.Fatalf("series %s: pushes %+v, want %d ending %+v", keys[i], pushes, rounds, offline[i][history+rounds])
				}
			}
		})
	}
}
