package nwsnet

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPersistRedoInterleavedSeries writes one log generation whose frames
// interleave stores, redelivered stores and backfills over several series —
// batches mixing series in one frame, backfills between a series' stores and
// past its frontier, a series created by a backfill — and puts a fuzzy snapshot of the memory
// as it stood halfway through beside it, so the generation's first half is
// already covered. Reopening must give every series the digest the live
// memory had.
func TestPersistRedoInterleavedSeries(t *testing.T) {
	const capacity = 24
	dir := t.TempDir()
	pm := openPersistent(t, capacity, dir)
	rng := rand.New(rand.NewSource(49))
	keys := []string{"a/cpu", "b/cpu", "c/load", "d/mem", "e/late"}
	next := make([]float64, len(keys)) // each series' next fresh timestamp
	fresh := func(s, n int) [][2]float64 {
		pts := make([][2]float64, n)
		for i := range pts {
			next[s] += 1 + float64(rng.Intn(3))
			pts[i] = [2]float64{next[s], rng.Float64()}
		}
		return pts
	}
	past := func(s, n int) [][2]float64 { // behind the frontier, some already held
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{math.Floor(rng.Float64() * next[s]), rng.Float64()}
		}
		return pts
	}
	op := func() Request {
		s := rng.Intn(len(keys) - 1) // e/late only ever arrives by backfill
		switch rng.Intn(6) {
		case 0, 1:
			return Request{Op: OpStore, Series: keys[s], Points: fresh(s, 1+rng.Intn(4))}
		case 2: // redelivery: old points then new ones
			pts := append(past(s, 2), fresh(s, 2)...)
			return Request{Op: OpStore, Series: keys[s], Points: pts}
		case 3:
			if next[s] == 0 {
				return Request{Op: OpStore, Series: keys[s], Points: fresh(s, 3)}
			}
			// Behind the frontier, and one point past it that the store
			// after it must dedup against.
			pts := append(past(s, 1+rng.Intn(5)), [2]float64{next[s] + 1.5, rng.Float64()})
			return Request{Op: OpBackfill, Series: keys[s], Points: pts}
		default: // a host tick: one frame, records for several series
			var subs []Request
			for s := range keys[:len(keys)-1] {
				subs = append(subs, Request{Op: OpStore, Series: keys[s], Points: fresh(s, 1)})
			}
			if next[0] > 0 {
				subs = append(subs, Request{Op: OpBackfill, Series: keys[0], Points: past(0, 2)})
			}
			return Request{Op: OpBatch, Batch: subs}
		}
	}
	apply := func(n int) {
		for i := 0; i < n; i++ {
			req := op()
			resp := pm.Handle(req)
			if resp.Error != "" {
				t.Fatalf("%s: %s", req.Op, resp.Error)
			}
			for _, sub := range resp.Batch {
				if sub.Error != "" {
					t.Fatalf("batch sub: %s", sub.Error)
				}
			}
		}
	}

	apply(150)
	pm.Backfill(keys[4], [][2]float64{{5, 0.5}, {3, 0.3}, {9, 0.9}})
	// The fuzzy snapshot: the memory as it stands now, numbered as the
	// generation still being written, so redo starts over records it holds.
	pm.journal.mu.Lock()
	snapKeys := pm.journal.keys
	pm.journal.mu.Unlock()
	if _, err := pm.journal.writeSnapshot(1, snapKeys); err != nil {
		t.Fatal(err)
	}
	apply(150)
	pm.Backfill(keys[4], [][2]float64{{1, 0.1}, {7, 0.7}})
	want := pm.Digests("")
	if len(want) != len(keys) {
		t.Fatalf("live memory holds %d series, want %d", len(want), len(keys))
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps, wals := dirFiles(t, dir, snapExt), dirFiles(t, dir, walExt); len(snaps) != 1 || len(wals) != 1 || snaps[0][:10] != wals[0][:10] {
		t.Fatalf("want one snapshot and one log of the same number, have %v and %v", snaps, wals)
	}
	if got := reopenDigests(t, capacity, dir); !sameDigests(got, want) {
		t.Fatalf("after reopen:\n got %+v\nwant %+v", got, want)
	}
}

// writeLog writes frames, each a list of encoded records, as log generation
// 1 of dir and returns the path and every frame's offset.
func writeLog(t *testing.T, dir string, frames ...[]byte) (path string, offs []int) {
	t.Helper()
	return writeLogGen(t, dir, 1, frames...)
}

// writeLogGen is writeLog for log generation gen.
func writeLogGen(t *testing.T, dir string, gen uint64, frames ...[]byte) (path string, offs []int) {
	t.Helper()
	var log []byte
	for _, records := range frames {
		offs = append(offs, len(log))
		frame := append(make([]byte, frameHeader), records...)
		sealFrame(frame)
		log = append(log, frame...)
	}
	path = genPath(dir, gen, walExt)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, offs
}

// TestPersistRedoRefusesBadRecords: a record the memory would refuse — a
// store of a non-finite point, a record for an id never defined, a define
// out of sequence — fails the open with the log's path and the offset of
// the frame holding it, even when good frames follow and when a later frame
// is bad too.
func TestPersistRedoRefusesBadRecords(t *testing.T) {
	good := appendPointsRecord(appendDefine(nil, 0, "k"), recStore, 0, [][2]float64{{1, 1}, {2, 2}})
	store := func(id uint32, pts ...[2]float64) []byte { return appendPointsRecord(nil, recStore, id, pts) }
	cases := []struct {
		name string
		bad  []byte // the second frame's records
		want string
	}{
		{"non-finite value", append(store(0, [2]float64{3, 3}), store(0, [2]float64{4, 4}, [2]float64{5, math.NaN()})...),
			"store: point 1 [5 NaN] is not finite"},
		{"non-finite time", store(0, [2]float64{math.Inf(1), 1}), "store: point 0 [+Inf 1] is not finite"},
		{"undefined id", append(store(0, [2]float64{3, 3}), store(5, [2]float64{4, 4})...),
			"record for undefined series id 5"},
		{"undefined backfill id", appendPointsRecord(nil, recBackfill, 1, [][2]float64{{0.5, 1}}),
			"record for undefined series id 1"},
		{"define out of sequence", appendDefine(nil, 2, "x"), "series id 2 (\"x\") out of sequence"},
		{"store without a key", append(appendDefine(nil, 1, ""), store(1, [2]float64{3, 3})...),
			"store requires a series key"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			later := append(store(7, [2]float64{9, 9}), 0xff) // bad as well, but later
			path, offs := writeLog(t, dir, good, c.bad, store(0, [2]float64{6, 6}), later)
			_, err := NewPersistentMemory(8, dir)
			want := fmt.Sprintf("log %s: frame at offset %d: %s", path, offs[1], c.want)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("open returned %v, want an error with %q", err, want)
			}
		})
	}

	// The same records in order are fine, and a torn last frame is cut
	// without touching what came before it.
	dir := t.TempDir()
	path, offs := writeLog(t, dir, good, store(0, [2]float64{3, 3}))
	appendTornFrame(t, path)
	pm := openPersistent(t, 8, dir)
	if d, ok := pm.Digest("k"); !ok || d.Count != 3 || d.Frontier != 3 {
		t.Fatalf("digest after redo = %+v, %v; want 3 points through t=3", d, ok)
	}
	if st, err := os.Stat(filepath.Join(dir, filepath.Base(path))); err != nil || st.Size() != int64(offs[1]+frameHeader+len(store(0, [2]float64{3, 3}))) {
		t.Fatalf("torn tail not cut back to the last good frame: %v, %v", st, err)
	}
}

// BenchmarkReopen times recovery in the shape of the repository benchmark's
// durable_restart directory: 512 series of capacity 1280, a snapshot of
// every full ring, and after it a log of host ticks — frames of three
// one-point stores, one frame per host. Each iteration opens the directory
// and answers the first fetch, as durable_restart's latency does; closing it
// is not timed. It reports ns per recovered point (snapshot and log
// together) beside ns per open, and the log's size over the snapshot's.
//
// ticks=343 is durable_restart's shape, about 175 000 records; ticks=0 is
// the snapshot alone, where reading, verifying and skimming it bound the
// open; ticks=760 is a log nine tenths of the snapshot's size, close to the
// most a checkpoint lets through, where decoding the log does.
func BenchmarkReopen(b *testing.B) {
	for _, ticks := range []int{343, 0, 760} {
		b.Run(fmt.Sprint("ticks=", ticks), func(b *testing.B) { benchmarkReopen(b, ticks) })
	}
}

func benchmarkReopen(b *testing.B, ticks int) {
	const (
		nSeries  = 512
		capacity = 1280
	)
	dir := b.TempDir()
	pm, err := NewPersistentMemory(capacity, dir)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, nSeries)
	pts := make([][2]float64, capacity)
	for s := range keys {
		keys[s] = SeriesKey(fmt.Sprintf("host-%04d", s/3), fmt.Sprint("series", s%3))
		for k := range pts {
			pts[k] = [2]float64{float64(k+1) * 10, rng.Float64()}
		}
		if resp := pm.Handle(Request{Op: OpStore, Series: keys[s], Points: pts}); resp.Error != "" {
			b.Fatal(resp.Error)
		}
	}
	if err := pm.journal.checkpointNow(); err != nil {
		b.Fatal(err)
	}
	snaps := dirFiles(b, dir, snapExt)
	for tick := capacity + 1; tick <= capacity+ticks; tick++ {
		for host := 0; 3*host < nSeries; host++ {
			var subs []Request
			for s := 3 * host; s < min(3*host+3, nSeries); s++ {
				subs = append(subs, Request{Op: OpStore, Series: keys[s], Points: [][2]float64{{float64(tick) * 10, rng.Float64()}}})
			}
			if resp := pm.Handle(Request{Op: OpBatch, Batch: subs}); resp.Error != "" {
				b.Fatal(resp.Error)
			}
		}
	}
	if err := pm.Close(); err != nil {
		b.Fatal(err)
	}
	if now := dirFiles(b, dir, snapExt); len(snaps) != 1 || fmt.Sprint(now) != fmt.Sprint(snaps) {
		b.Fatalf("want the one snapshot %v, have %v: the log outgrew it", snaps, now)
	}
	var size [2]int64 // snapshot, log
	for i, name := range append(snaps, dirFiles(b, dir, walExt)...) {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			b.Fatal(err)
		}
		size[min(i, 1)] += st.Size()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm, err := NewPersistentMemory(capacity, dir)
		if err != nil {
			b.Fatal(err)
		}
		resp := pm.Handle(Request{Op: OpFetch, Series: keys[0], Max: 1})
		if resp.Error != "" || len(resp.Points) != 1 || resp.Points[0][0] != float64(capacity+ticks)*10 {
			b.Fatalf("first fetch after reopen: %+v", resp)
		}
		b.StopTimer()
		pm.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nSeries*(capacity+ticks)), "ns/point")
	b.ReportMetric(float64(size[1])/float64(size[0]), "log/snap")
}
