package nwsnet

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The seeded crash campaign for the durable memory. A ledger of acknowledged
// requests — with the log offset and every series' digest at each
// acknowledgement — is built once from a seed; the campaign then damages
// copies of the directory the way a crash (or a bad disk) would and checks
// what reopening yields against the ledger. Everything is a function of the
// seed: the same build produces byte-identical files.

const (
	crashSeed     = 1
	crashCapacity = 24 // small, so stores evict and backfills trim
	crashSeries   = 6
)

// writeSpy stands between the journal and its file: it counts the bytes
// write(2) has returned for and the calls it took.
type writeSpy struct {
	io.WriteCloser
	written int64
	calls   int
}

func (w *writeSpy) Write(b []byte) (int, error) {
	n, err := w.WriteCloser.Write(b)
	w.written += int64(n)
	w.calls++
	return n, err
}

// ledgerEntry is the state of the store when one request was acknowledged.
type ledgerEntry struct {
	off     int64 // size of the newest generation at the ack; 0 once a snapshot covers the request
	digests []SeriesDigest
}

// crashLedger drives n seeded requests — single and multi-point stores, stale
// and partly stale ones, inline batch envelopes, backfills behind the
// frontier — through pm from one goroutine and returns the ledger. It also
// holds the durability contract at every ack: the request's frame went out
// in one write that had returned.
type crashLedger struct {
	t       *testing.T
	rng     *rand.Rand
	pm      *PersistentMemory
	spy     *writeSpy
	next    [crashSeries]float64 // next fresh timestamp per series
	entries []ledgerEntry
}

func newCrashLedger(t *testing.T, pm *PersistentMemory) *crashLedger {
	l := &crashLedger{t: t, rng: rand.New(rand.NewSource(crashSeed)), pm: pm}
	l.spyOn()
	for i := range l.next {
		l.next[i] = 1000
	}
	return l
}

// spyOn wraps the journal's current file; call it again after a checkpoint
// rotated to a new one.
func (l *crashLedger) spyOn() {
	j := l.pm.journal
	l.spy = &writeSpy{WriteCloser: j.f, written: j.off}
	j.f = l.spy
}

func crashKey(i int) string { return fmt.Sprintf("host%d/cpu/s\x00%d", i/2, i) }

func (l *crashLedger) fresh(s, n int) [][2]float64 {
	pts := make([][2]float64, n)
	for i := range pts {
		l.next[s] += float64(1 + l.rng.Intn(3))
		pts[i] = [2]float64{l.next[s], l.rng.Float64()}
	}
	return pts
}

func (l *crashLedger) request() Request {
	s := l.rng.Intn(crashSeries)
	switch k := l.rng.Intn(10); {
	case k < 4:
		return Request{Op: OpStore, Series: crashKey(s), Points: l.fresh(s, 1)}
	case k < 6:
		return Request{Op: OpStore, Series: crashKey(s), Points: l.fresh(s, 2+l.rng.Intn(6))}
	case k < 7: // partly stale: an old point in the middle of fresh ones
		pts := l.fresh(s, 3)
		pts[1] = [2]float64{900, 0.5}
		return Request{Op: OpStore, Series: crashKey(s), Points: pts}
	case k < 9: // a host tick: one inline envelope over several series
		subs := make([]Request, 2+l.rng.Intn(batchInlineLimit-1))
		for i := range subs {
			si := (s + i) % crashSeries
			subs[i] = Request{Op: OpStore, Series: crashKey(si), Points: l.fresh(si, 1)}
		}
		return Request{Op: OpBatch, Batch: subs}
	default: // history behind the frontier, some of it already held
		pts := make([][2]float64, 1+l.rng.Intn(5))
		for i := range pts {
			pts[i] = [2]float64{l.next[s] - float64(l.rng.Intn(40)) - 0.5*float64(l.rng.Intn(2)), l.rng.Float64()}
		}
		return Request{Op: OpBackfill, Series: crashKey(s), Points: pts}
	}
}

func (l *crashLedger) run(n int) {
	l.t.Helper()
	j := l.pm.journal
	for i := 0; i < n; i++ {
		before, calls := j.off, l.spy.calls
		resp := l.pm.Handle(l.request())
		if resp.Error != "" {
			l.t.Fatal(resp.Error)
		}
		for _, sub := range resp.Batch {
			if sub.Error != "" {
				l.t.Fatal(sub.Error)
			}
		}
		// Acked: the frame [before, off) is wholly below what write(2) has
		// returned for, and went out in a single call.
		if j.off != l.spy.written {
			l.t.Fatalf("request %d acked at log offset %d with %d bytes written", len(l.entries), j.off, l.spy.written)
		}
		if j.off > before && l.spy.calls != calls+1 {
			l.t.Fatalf("request %d: frame [%d,%d) went out in %d writes", len(l.entries), before, j.off, l.spy.calls-calls)
		}
		l.entries = append(l.entries, ledgerEntry{off: j.off, digests: l.pm.Digests("")})
	}
}

// checkpoint forces a checkpoint; everything acked so far is then covered by
// the snapshot, whatever happens to the new generation.
func (l *crashLedger) checkpoint() {
	l.t.Helper()
	if err := l.pm.Checkpoint(); err != nil {
		l.t.Fatal(err)
	}
	for i := range l.entries {
		l.entries[i].off = 0
	}
	l.spyOn()
}

// stateAt returns the digests after the last request acked in a frame wholly
// below cut, and where that frame ends.
func (l *crashLedger) stateAt(cut int64) (digests []SeriesDigest, boundary int64) {
	for _, e := range l.entries {
		if e.off > cut {
			break
		}
		digests, boundary = e.digests, e.off
	}
	return digests, boundary
}

// copyFile copies src/name to dst/name.
func copyFile(t *testing.T, dst, src, name string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies every file of src into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range dirFiles(t, src, "") {
		copyFile(t, dst, src, name)
	}
	return dst
}

// reopenDigests opens dir, returns every series' digest and closes it again.
func reopenDigests(t *testing.T, capacity int, dir string) []SeriesDigest {
	t.Helper()
	pm, err := NewPersistentMemory(capacity, dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer pm.Close()
	return pm.Digests("")
}

func sameDigests(a, b []SeriesDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newestLog returns the path of the highest-numbered generation in dir.
func newestLog(t *testing.T, dir string) string {
	t.Helper()
	wals := dirFiles(t, dir, walExt)
	if len(wals) == 0 {
		t.Fatal("no log generation in " + dir)
	}
	return filepath.Join(dir, wals[len(wals)-1])
}

func flipBit(t *testing.T, path string, bit int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[bit/8] ^= 1 << (bit % 8)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPersistCrashTornTail is campaign (a): the newest generation cut at
// seeded byte offsets, and seeded bit flips in its last frame. Reopening must
// yield exactly the store as of the last request acked in a frame wholly
// before the damage — so per series a prefix of its acked history, never a
// corrupt or reordered one — cut the file back to that frame boundary, count
// the cut, and leave a log that keeps working.
func TestPersistCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	pm := openPersistent(t, crashCapacity, dir)
	l := newCrashLedger(t, pm)
	l.run(120)
	l.checkpoint()
	l.run(180)
	pm.Close()
	size := l.entries[len(l.entries)-1].off
	if st, err := os.Stat(newestLog(t, dir)); err != nil || st.Size() != size {
		t.Fatalf("newest generation: %v, %v; ledger says %d bytes", st, err, size)
	}

	rng := rand.New(rand.NewSource(crashSeed + 1))
	cuts := []int64{0, 1, frameHeader - 1, frameHeader, size - 1, size}
	for len(cuts) < 240 {
		cuts = append(cuts, rng.Int63n(size+1))
	}
	for _, cut := range cuts {
		crashed := copyDir(t, dir)
		log := newestLog(t, crashed)
		if err := os.Truncate(log, cut); err != nil {
			t.Fatal(err)
		}
		want, boundary := l.stateAt(cut)
		trunc0 := mMemoryLogTruncations.Value()
		if got := reopenDigests(t, crashCapacity, crashed); !sameDigests(got, want) {
			t.Fatalf("cut at %d of %d: reopened to\n%+v\nwant the store as acked below the cut\n%+v", cut, size, got, want)
		}
		if st, err := os.Stat(log); err != nil || st.Size() != boundary {
			t.Fatalf("cut at %d: log is %v bytes after recovery (%v), want the frame boundary %d", cut, st.Size(), err, boundary)
		}
		if got, torn := mMemoryLogTruncations.Value()-trunc0, cut != boundary; (got == 1) != torn {
			t.Fatalf("cut at %d (boundary %d): truncations delta = %d", cut, boundary, got)
		}
		// The cut log is a clean log: it takes an append and reopens again.
		if cut%5 == 0 {
			pm2 := openPersistent(t, crashCapacity, crashed)
			mustStore(t, pm2, crashKey(0), [2]float64{1e9, 0.25})
			after := pm2.Digests("")
			pm2.Close()
			if got := reopenDigests(t, crashCapacity, crashed); !sameDigests(got, after) {
				t.Fatalf("cut at %d: append after recovery did not survive the next reopen", cut)
			}
		}
	}

	// Bit flips anywhere in the last frame — length, checksum or payload —
	// lose that frame and nothing else.
	last := l.entries[len(l.entries)-2].off
	want := l.entries[len(l.entries)-2].digests
	for i := 0; i < 64; i++ {
		crashed := copyDir(t, dir)
		log := newestLog(t, crashed)
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			flipBit(t, log, last*8+rng.Int63n((size-last)*8))
		}
		if got := reopenDigests(t, crashCapacity, crashed); !sameDigests(got, want) {
			t.Fatalf("bit flips in the last frame (round %d): reopened to\n%+v\nwant\n%+v", i, got, want)
		}
		if st, _ := os.Stat(log); st.Size() != last {
			t.Fatalf("bit flips in the last frame (round %d): log is %d bytes after recovery, want %d", i, st.Size(), last)
		}
	}
}

// TestPersistCrashCheckpointWindows is campaign (b): a crash at every step of
// a checkpoint — including a snapshot as fuzzy as one can be, taken after
// everything in the generation it opens — reopens to the uncrashed store.
func TestPersistCrashCheckpointWindows(t *testing.T) {
	dir := t.TempDir()
	pm := openPersistent(t, crashCapacity, dir)
	l := newCrashLedger(t, pm)
	l.run(100)
	l.checkpoint()
	l.run(100)
	before := copyDir(t, dir) // snapshot N, generation N
	l.checkpoint()
	l.run(100) // lands in generation N+1
	want := pm.Digests("")
	j := pm.journal
	gen := j.gen
	// What a checkpoint still running while those 100 requests arrived would
	// have written: every one of them is in both the snapshot and the log.
	if _, err := j.writeSnapshot(gen, j.keys); err != nil {
		t.Fatal(err)
	}
	pm.Close()
	after := copyDir(t, dir) // snapshot N+1 (fuzzy), generation N+1

	newSnap, newLog := filepath.Base(genPath("", gen, snapExt)), filepath.Base(genPath("", gen, walExt))
	windows := map[string]func(dir string){
		"rotated, snapshot not started": func(dir string) { copyFile(t, dir, after, newLog) },
		"stray temp snapshot": func(dir string) {
			copyFile(t, dir, after, newLog)
			data, _ := os.ReadFile(filepath.Join(after, newSnap))
			os.WriteFile(filepath.Join(dir, newSnap+tmpExt), data[:len(data)/2], 0o644)
		},
		"new snapshot, old files not yet deleted": func(dir string) {
			copyFile(t, dir, after, newLog)
			copyFile(t, dir, after, newSnap)
		},
		"old generation deleted, old snapshot not yet": func(dir string) {
			copyFile(t, dir, after, newLog)
			copyFile(t, dir, after, newSnap)
			os.Remove(filepath.Join(dir, filepath.Base(genPath("", gen-1, walExt))))
		},
		"checkpoint complete": func(dir string) {
			for _, name := range dirFiles(t, dir, "") {
				os.Remove(filepath.Join(dir, name))
			}
			copyFile(t, dir, after, newLog)
			copyFile(t, dir, after, newSnap)
		},
	}
	for name, crash := range windows {
		crashed := copyDir(t, before)
		crash(crashed)
		if got := reopenDigests(t, crashCapacity, crashed); !sameDigests(got, want) {
			t.Errorf("%s: reopened to\n%+v\nwant the uncrashed store\n%+v", name, got, want)
		}
		// Recovery finishes the interrupted checkpoint's clean-up: at most
		// one snapshot and the generations from it on remain.
		if files := dirFiles(t, crashed, ""); len(files) > 3 || len(dirFiles(t, crashed, tmpExt)) != 0 {
			t.Errorf("%s: files after recovery: %v", name, files)
		}
	}

	// A newest snapshot that fails its checksum is passed over while the
	// older one and its generations are all still there ...
	crashed := copyDir(t, before)
	copyFile(t, crashed, after, newLog)
	copyFile(t, crashed, after, newSnap)
	flipBit(t, filepath.Join(crashed, newSnap), 8*100)
	if got := reopenDigests(t, crashCapacity, crashed); !sameDigests(got, want) {
		t.Errorf("bad newest snapshot beside the older one: reopened to\n%+v\nwant\n%+v", got, want)
	}
	// ... and fails the open, naming the file, when they are not.
	crashed = copyDir(t, after)
	flipBit(t, filepath.Join(crashed, newSnap), 8*100)
	if _, err := NewPersistentMemory(crashCapacity, crashed); err == nil || !strings.Contains(err.Error(), newSnap) {
		t.Errorf("bad only snapshot: open returned %v, want an error naming %s", err, newSnap)
	}
	// A generation missing between the snapshot and the newest one is a hole
	// in the history, not something to skip.
	crashed = copyDir(t, before)
	copyFile(t, crashed, after, newLog)
	os.Remove(filepath.Join(crashed, filepath.Base(genPath("", gen-1, walExt))))
	if _, err := NewPersistentMemory(crashCapacity, crashed); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing generation: open returned %v, want an error", err)
	}
}

// TestPersistCrashMidLogCorruption is campaign (c): a frame that fails its
// checksum with good frames after it — in the newest generation or an older
// one — fails the open with the file and the frame's offset instead of
// dropping what follows.
func TestPersistCrashMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	pm := openPersistent(t, crashCapacity, dir)
	l := newCrashLedger(t, pm)
	l.run(60)
	frame := l.entries[29].off // the 31st frame starts here
	flip := frame*8 + 8*(frameHeader+2)
	pm.Close()
	oldLog := filepath.Base(newestLog(t, dir))

	crashed := copyDir(t, dir)
	flipBit(t, filepath.Join(crashed, oldLog), flip)
	wantErr := fmt.Sprintf("%s: offset %d", filepath.Join(crashed, oldLog), frame)
	if _, err := NewPersistentMemory(crashCapacity, crashed); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("mid-log corruption in the newest generation: open returned %v, want an error with %q", err, wantErr)
	}
	// The same damage to the length field: no frame boundary follows where
	// the bad length points, but whole frames do follow.
	crashed = copyDir(t, dir)
	flipBit(t, filepath.Join(crashed, oldLog), frame*8+1)
	if _, err := NewPersistentMemory(crashCapacity, crashed); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", frame)) {
		t.Fatalf("mid-log length corruption: open returned %v, want an error at offset %d", err, frame)
	}

	// An older generation is never cut, not even at its tail.
	crashed = copyDir(t, dir)
	if err := os.WriteFile(genPath(crashed, 2, walExt), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	size := l.entries[len(l.entries)-1].off
	if err := os.Truncate(filepath.Join(crashed, oldLog), size-3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPersistentMemory(crashCapacity, crashed); err == nil || !strings.Contains(err.Error(), oldLog) {
		t.Fatalf("torn older generation: open returned %v, want an error naming %s", err, oldLog)
	}
}

// TestPersistCrashCampaignReproducible: the same seed writes the same bytes.
func TestPersistCrashCampaignReproducible(t *testing.T) {
	var dirs [2]string
	for i := range dirs {
		dirs[i] = t.TempDir()
		pm := openPersistent(t, crashCapacity, dirs[i])
		l := newCrashLedger(t, pm)
		l.run(150)
		l.checkpoint()
		l.run(50)
		pm.Close()
	}
	names := dirFiles(t, dirs[0], "")
	if other := dirFiles(t, dirs[1], ""); strings.Join(names, " ") != strings.Join(other, " ") {
		t.Fatalf("file sets differ: %v vs %v", names, other)
	}
	for _, name := range names {
		a, _ := os.ReadFile(filepath.Join(dirs[0], name))
		b, _ := os.ReadFile(filepath.Join(dirs[1], name))
		if string(a) != string(b) {
			t.Errorf("%s differs between two runs of the same seed", name)
		}
	}
}

// TestPersistConcurrentLogOrder: with several writers racing on the same few
// series — and a large envelope fanned out over the batch worker pool beside
// them — the log must hold each series' records in the order they were
// applied, or redo's frontier dedup drops points the live store kept. Digests
// after reopening must equal the live ones, every time.
func TestPersistConcurrentLogOrder(t *testing.T) {
	const writers, perWriter, hot, rounds = 8, 40, 4, 50
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		pm := openPersistent(t, 64, dir)
		var clock atomic.Int64 // shared, so timestamps reach a series out of order
		var failed atomic.Value
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					ts := float64(clock.Add(1))
					key := crashKey((w + i) % hot)
					var resp Response
					if i%8 == 7 {
						resp = pm.Handle(Request{Op: OpBackfill, Series: key, Points: [][2]float64{{ts - 0.5, float64(w)}}})
					} else {
						resp = pm.Handle(Request{Op: OpStore, Series: key, Points: [][2]float64{{ts, float64(w)}}})
					}
					if resp.Error != "" {
						failed.Store(resp.Error)
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs := make([]Request, 64)
			for i := range subs {
				subs[i] = Request{Op: OpStore, Series: crashKey(i % (2 * hot)), Points: [][2]float64{{float64(clock.Add(1)), -1}}}
			}
			resp := pm.Handle(Request{Op: OpBatch, Batch: subs})
			if resp.Error != "" {
				failed.Store(resp.Error)
			}
		}()
		wg.Wait()
		if msg := failed.Load(); msg != nil {
			t.Fatal(msg)
		}
		want := pm.Digests("")
		if err := pm.Close(); err != nil {
			t.Fatal(err)
		}
		if got := reopenDigests(t, 64, dir); !sameDigests(got, want) {
			t.Fatalf("round %d: reopened to\n%+v\nwant the live store\n%+v", round, got, want)
		}
	}
}

// TestPersistConcurrentCheckpoint: explicit checkpoints running beside
// writers lose nothing and leave a directory that reopens to the live store.
func TestPersistConcurrentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	pm := openPersistent(t, 64, dir)
	var wg sync.WaitGroup
	var failed atomic.Value
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 400; i++ {
				resp := pm.Handle(Request{Op: OpStore, Series: crashKey(w), Points: [][2]float64{{float64(i), float64(w)}}})
				if resp.Error != "" {
					failed.Store(resp.Error)
				}
				if i%50 == 0 {
					pm.Backfill(crashKey(w+4), [][2]float64{{float64(1000 - i), 1}})
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := pm.Checkpoint(); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatal(msg)
	}
	want := pm.Digests("")
	pm.Close()
	if got := reopenDigests(t, 64, dir); !sameDigests(got, want) {
		t.Fatalf("reopened to\n%+v\nwant the live store\n%+v", got, want)
	}
}
