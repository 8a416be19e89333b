package nwsnet

import (
	"context"
	"testing"
)

// TestPersistBackfillSurvivesRestart: history that arrives behind the
// frontier — a wire OpBackfill (nwsctl repair), the Repairer's pull, and
// the cluster handoff's direct Memory.Backfill — must be as durable as a
// store: close, reopen, same digest.
func TestPersistBackfillSurvivesRestart(t *testing.T) {
	head := [][2]float64{{100, 0.5}, {110, 0.6}}
	hole := [][2]float64{{40, 0.1}, {50, 0.2}, {60, 0.3}}
	doors := map[string]func(t *testing.T, pm *PersistentMemory){
		"wire OpBackfill": func(t *testing.T, pm *PersistentMemory) {
			if resp := pm.Handle(Request{Op: OpBackfill, Series: "k", Points: hole}); resp.Error != "" {
				t.Fatal(resp.Error)
			}
		},
		"batched OpBackfill": func(t *testing.T, pm *PersistentMemory) {
			resp := pm.Handle(Request{Op: OpBatch, Batch: []Request{{Op: OpBackfill, Series: "k", Points: hole}}})
			if resp.Error != "" || resp.Batch[0].Error != "" {
				t.Fatal(resp.Error, resp.Batch)
			}
		},
		"Repairer pull": func(t *testing.T, pm *PersistentMemory) {
			lt := NewLocalTransport()
			peer := NewMemory(0)
			peer.Handle(Request{Op: OpStore, Series: "k", Points: append(append([][2]float64(nil), hole...), head...)})
			lt.Register("peer", peer)
			rp := NewRepairer(lt, pm.Memory, []string{"peer"})
			if n, err := rp.RepairRound(context.Background()); err != nil || n != len(hole) {
				t.Fatalf("repair round recovered %d points, err %v; want %d", n, err, len(hole))
			}
		},
		"cluster handoff": func(t *testing.T, pm *PersistentMemory) {
			node := NewClusterNode("n", pm.Memory)
			if n := node.Memory().Backfill("k", hole); n != len(hole) {
				t.Fatalf("backfilled %d points, want %d", n, len(hole))
			}
		},
	}
	for name, door := range doors {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			pm, err := NewPersistentMemory(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if resp := pm.Handle(Request{Op: OpStore, Series: "k", Points: head}); resp.Error != "" {
				t.Fatal(resp.Error)
			}
			door(t, pm)
			want, _ := pm.Digest("k")
			if want.Count != uint64(len(head)+len(hole)) {
				t.Fatalf("live series holds %d points, want %d", want.Count, len(head)+len(hole))
			}
			if err := pm.Close(); err != nil {
				t.Fatal(err)
			}
			pm2, err := NewPersistentMemory(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer pm2.Close()
			if got, _ := pm2.Digest("k"); got != want {
				t.Fatalf("digest after reopen = %+v, want %+v: the backfilled history was not durable", got, want)
			}
		})
	}
}
