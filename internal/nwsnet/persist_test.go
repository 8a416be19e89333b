package nwsnet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// openPersistent opens a durable memory in dir and closes it with the test.
func openPersistent(t *testing.T, capacity int, dir string) *PersistentMemory {
	t.Helper()
	pm, err := NewPersistentMemory(capacity, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pm.Close() })
	return pm
}

// mustStore stores pts through Handle and fails the test on an error answer.
func mustStore(t *testing.T, h Handler, key string, pts ...[2]float64) {
	t.Helper()
	if resp := h.Handle(Request{Op: OpStore, Series: key, Points: pts}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
}

// dirFiles returns the names in dir with the given extension, sorted.
func dirFiles(t *testing.T, dir, ext string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		paths[i] = filepath.Base(paths[i])
	}
	return paths
}

func TestPersistentMemoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pm := openPersistent(t, 0, dir)
	addr := startServer(t, pm)
	c := NewClient(time.Second)
	pts := [][2]float64{{10, 0.9}, {20, 0.85}, {30, 0.8}}
	if err := c.Store(addr, "thing1/cpu/nws_hybrid", pts); err != nil {
		t.Fatal(err)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the series must come back from the log.
	pm2 := openPersistent(t, 0, dir)
	addr2 := startServer(t, pm2)
	got, err := c.Fetch(addr2, "thing1/cpu/nws_hybrid", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != pts[0] || got[2] != pts[2] {
		t.Fatalf("replayed points = %v", got)
	}
	// Appending after replay must continue the series.
	if err := c.Store(addr2, "thing1/cpu/nws_hybrid", [][2]float64{{40, 0.7}}); err != nil {
		t.Fatal(err)
	}
	got, err = c.Fetch(addr2, "thing1/cpu/nws_hybrid", 0, 0, 0)
	if err != nil || len(got) != 4 {
		t.Fatalf("after append: %v, %v", got, err)
	}
}

func TestPersistentMemoryValidationStillApplies(t *testing.T) {
	dir := t.TempDir()
	pm := openPersistent(t, 0, dir)
	mustStore(t, pm, "k", [2]float64{5, 1})
	// A stale store dedups instead of erroring, and a partly stale one logs
	// only what was accepted.
	mustStore(t, pm, "k", [2]float64{1, 1})
	mustStore(t, pm, "k", [2]float64{4, 1}, [2]float64{6, 1}, [2]float64{2, 1}, [2]float64{7, 1})
	want, _ := pm.Digest("k")
	if want.Count != 3 {
		t.Fatalf("live series holds %d points, want 3", want.Count)
	}
	pm.Close()
	if resp := pm.Handle(Request{Op: OpStore, Series: "k", Points: [][2]float64{{9, 1}}}); resp.Error == "" {
		t.Fatal("store after Close was acknowledged")
	}
	if err := pm.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	pm2 := openPersistent(t, 0, dir)
	if got, _ := pm2.Digest("k"); got != want {
		t.Fatalf("digest after reopen = %+v, want %+v", got, want)
	}
}

// TestPersistentMemoryRefusesTextLogs: a directory still holding per-series
// text logs of the format before the write-ahead log does not open — not
// even beside a valid snapshot — and the error names the first of them.
func TestPersistentMemoryRefusesTextLogs(t *testing.T) {
	dir := t.TempDir()
	pm := openPersistent(t, 0, dir)
	mustStore(t, pm, "k", [2]float64{10, 0.9})
	if err := pm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pm.Close()
	for _, name := range []string{"k.log", "host%2Fcpu%2Fvmstat.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("10,0.9\n20,0.8\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := NewPersistentMemory(0, dir)
	if err == nil || !strings.Contains(err.Error(), "host%2Fcpu%2Fvmstat.log") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("open over text logs = %v, want a one-line refusal naming host%%2Fcpu%%2Fvmstat.log", err)
	}
	if left := dirFiles(t, dir, textExt); len(left) != 2 {
		t.Fatalf("refusal touched the text logs: %v left", left)
	}
}

func TestPersistentMemoryCompact(t *testing.T) {
	dir := t.TempDir()
	pm := openPersistent(t, 3, dir) // keep only 3 points
	for i := 0; i < 10; i++ {
		mustStore(t, pm, "k", [2]float64{float64(i), float64(i)})
	}
	comp0 := mMemoryCompactions.Value()
	if err := pm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := mMemoryCompactions.Value() - comp0; got != 1 {
		t.Errorf("checkpoints counted = %d, want 1", got)
	}
	// One snapshot holding just the retained window, one empty generation
	// after it, nothing else.
	snaps, wals := dirFiles(t, dir, snapExt), dirFiles(t, dir, walExt)
	if len(snaps) != 1 || len(wals) != 1 || len(dirFiles(t, dir, "")) != 2 {
		t.Fatalf("after checkpoint: snapshots %v, logs %v, all %v", snaps, wals, dirFiles(t, dir, ""))
	}
	if st, err := os.Stat(filepath.Join(dir, wals[0])); err != nil || st.Size() != 0 {
		t.Fatalf("log after checkpoint: %v, %v; want empty", st, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snaps[0]))
	if err != nil {
		t.Fatal(err)
	}
	body, err := snapshotBody(data)
	if err != nil {
		t.Fatal(err)
	}
	var scratch, got [][2]float64
	err = decodeSnapshotEntries(body, &scratch, func(id uint32, key string, pts [][2]float64) error {
		if id != 0 || key != "k" {
			t.Errorf("snapshot entry %d %q, want 0 \"k\"", id, key)
		}
		got = append(got, pts...)
		return nil
	})
	if err != nil || len(got) != 3 || got[0][0] != 7 {
		t.Fatalf("snapshot holds %v (%v), want the last 3 points", got, err)
	}
	// The memory must still serve and append after a checkpoint, and both
	// halves must come back.
	mustStore(t, pm, "k", [2]float64{10, 10})
	want, _ := pm.Digest("k")
	pm.Close()
	pm2 := openPersistent(t, 3, dir)
	if d, _ := pm2.Digest("k"); d != want {
		t.Fatalf("digest after reopen = %+v, want %+v", d, want)
	}
}

func TestPersistentMemoryAutoCompaction(t *testing.T) {
	comp0 := mMemoryCompactions.Value()
	dir := t.TempDir()
	const capacity = 10
	pm := openPersistent(t, capacity, dir)

	// Single-point appends until the log has outgrown the floor: a
	// checkpoint must have fired along the way, leaving a log far smaller
	// than what was written and a snapshot of just the retained window.
	written := 0
	for i := 0; mMemoryCompactions.Value() == comp0; i++ {
		if written > 2*walCheckpointFloor {
			t.Fatalf("no checkpoint after %d log bytes", written)
		}
		mustStore(t, pm, "k", [2]float64{float64(i), float64(i%7) / 7})
		written = int(pm.journal.off)
	}
	if written > 64 {
		t.Fatalf("log holds %d bytes right after the checkpoint, want about one frame", written)
	}
	snaps := dirFiles(t, dir, snapExt)
	if len(snaps) != 1 || len(dirFiles(t, dir, "")) != 2 {
		t.Fatalf("after checkpoint: files %v", dirFiles(t, dir, ""))
	}
	if st, err := os.Stat(filepath.Join(dir, snaps[0])); err != nil || st.Size() > 40*capacity {
		t.Fatalf("snapshot: %v, %v; want at most the retained window", st, err)
	}

	// A restart after the checkpoint must bring back exactly the retained
	// window.
	want := pm.Handle(Request{Op: OpFetch, Series: "k"}).Points
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
	pm2 := openPersistent(t, capacity, dir)
	got := pm2.Handle(Request{Op: OpFetch, Series: "k"}).Points
	if len(got) != len(want) {
		t.Fatalf("replayed %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed point %d = %v, want %v", i, got[i], want[i])
		}
	}
	// And appending on the restarted memory keeps working.
	mustStore(t, pm2, "k", [2]float64{1e9, 1})
}

// TestPersistentMemoryKeyEscaping: keys live inside records now, not in file
// names, so nothing about a key's bytes may matter.
func TestPersistentMemoryKeyEscaping(t *testing.T) {
	dir := t.TempDir()
	pm := openPersistent(t, 0, dir)
	keys := []string{"host.with/weird:chars/cpu/vmstat", "nul\x00inside", "../../escape", "trailing/", "\xff\xfe not utf-8", "%2F", "k.log", "0000000001.wal"}
	for i, key := range keys {
		mustStore(t, pm, key, [2]float64{1, float64(i)})
	}
	if err := pm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		mustStore(t, pm, key, [2]float64{2, float64(i)})
	}
	want := pm.Digests("")
	pm.Close()
	pm2 := openPersistent(t, 0, dir)
	got := pm2.Digests("")
	if len(got) != len(keys) {
		t.Fatalf("%d series after reopen, want %d", len(got), len(keys))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series %q after reopen = %+v, want %+v", want[i].Series, got[i], want[i])
		}
	}
}

func TestNameServerTTLExpiry(t *testing.T) {
	ns := NewNameServerTTL(time.Minute)
	now := time.Unix(1000, 0)
	ns.now = func() time.Time { return now }

	reg := Registration{Name: "s1", Kind: KindSensor, Addr: "a:1"}
	if resp := ns.Handle(Request{Op: OpRegister, Reg: reg}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if resp := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: "s1"}}); resp.Error != "" {
		t.Fatalf("fresh entry not found: %s", resp.Error)
	}

	now = now.Add(2 * time.Minute)
	if resp := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: "s1"}}); resp.Error == "" {
		t.Fatal("stale entry still resolvable")
	}
	if resp := ns.Handle(Request{Op: OpList}); len(resp.Entries) != 0 {
		t.Fatalf("stale entry listed: %v", resp.Entries)
	}

	// Re-registration (the heartbeat) revives it.
	if resp := ns.Handle(Request{Op: OpRegister, Reg: reg}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if resp := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: "s1"}}); resp.Error != "" {
		t.Fatal("heartbeat did not revive entry")
	}
}

func TestNameServerZeroTTLNeverExpires(t *testing.T) {
	ns := NewNameServer()
	now := time.Unix(0, 0)
	ns.now = func() time.Time { return now }
	ns.Handle(Request{Op: OpRegister, Reg: Registration{Name: "x", Kind: KindMemory, Addr: "a:1"}})
	now = now.Add(1000 * time.Hour)
	if resp := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: "x"}}); resp.Error != "" {
		t.Fatal("entry expired with zero TTL")
	}
}
