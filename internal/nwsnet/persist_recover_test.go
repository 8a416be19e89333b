package nwsnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// dirImage returns every file of dir by name.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	img := map[string][]byte{}
	for _, name := range dirFiles(t, dir, "") {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		img[name] = data
	}
	return img
}

// sameImage reports the first difference between two directory images.
func sameImage(a, b map[string][]byte) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d files, want %d", len(b), len(a))
	}
	for name, data := range a {
		if got, ok := b[name]; !ok {
			return fmt.Errorf("%s is gone", name)
		} else if !bytes.Equal(got, data) {
			return fmt.Errorf("%s: %d bytes, want %d identical ones", name, len(got), len(data))
		}
	}
	return nil
}

// writeSnapshotFile writes body, a run of snapshot entries, as the snapshot
// numbered gen of dir, with the magic and a checksum that verifies.
func writeSnapshotFile(t *testing.T, dir string, gen uint64, body []byte) string {
	t.Helper()
	image := append(append([]byte(nil), snapMagic...), body...)
	image = binary.LittleEndian.AppendUint32(image, crc32.Checksum(image, crc32c))
	path := genPath(dir, gen, snapExt)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// appendTornFrame appends the first bytes of a frame, a write a crash cut
// short, to the log at path.
func appendTornFrame(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{40, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
}

// badSnapshot writes snapshot 1 of dir: 71 entries, more than two recovery
// tasks take, that pass the checksum, the last with a malformed point array.
func badSnapshot(t *testing.T, dir string) string {
	t.Helper()
	var body []byte
	for id := uint32(0); id < 70; id++ {
		body = appendSnapshotEntry(body, id, fmt.Sprint("s", id), [][2]float64{{1, 1}, {2, float64(id)}})
	}
	// One point whose time is a 10-byte uvarint with a tenth byte above 1:
	// it overflows 64 bits.
	body = appendSnapshotEntry(body, 70, "bad", nil)
	body = append(body[:len(body)-1], 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00)
	return writeSnapshotFile(t, dir, 1, body)
}

// TestPersistFailedOpenChangesNoLog: an open that fails changes no file,
// even when the newest generation ends in a torn tail that a successful open
// would cut. The cut waits until the snapshot and every generation have
// decoded: a snapshot whose checksum verifies but whose last entry's point
// array is malformed fails the open naming the snapshot, even when the log
// holds a bad record too, and a bad record in an older generation fails it
// naming that file and offset.
func TestPersistFailedOpenChangesNoLog(t *testing.T) {
	store := func(id uint32, pts ...[2]float64) []byte { return appendPointsRecord(nil, recStore, id, pts) }
	cases := []struct {
		name string
		// seed writes dir's files and returns what the open's error must
		// contain.
		seed func(t *testing.T, dir string) string
	}{
		{"malformed snapshot entry", func(t *testing.T, dir string) string {
			path := badSnapshot(t, dir)
			log, _ := writeLog(t, dir, store(0, [2]float64{3, 3}), append(appendDefine(nil, 71, "log"), store(71, [2]float64{1, 1})...))
			appendTornFrame(t, log)
			return "snapshot " + path + ": " + errBinMalformed.Error()
		}},
		{"malformed snapshot entry and a bad record", func(t *testing.T, dir string) string {
			path := badSnapshot(t, dir)
			log, _ := writeLog(t, dir, store(0, [2]float64{3, 3}), store(90, [2]float64{1, 1}))
			appendTornFrame(t, log)
			return "snapshot " + path + ": " + errBinMalformed.Error()
		}},
		{"bad record in an older generation", func(t *testing.T, dir string) string {
			// Generation 1 holds the bad record, generation 2 the torn tail.
			old, offs := writeLog(t, dir, appendPointsRecord(appendDefine(nil, 0, "k"), recStore, 0, [][2]float64{{1, 1}}), store(3, [2]float64{2, 2}))
			newest, _ := writeLogGen(t, dir, 2, store(0, [2]float64{3, 3}))
			appendTornFrame(t, newest)
			return fmt.Sprintf("log %s: frame at offset %d: record for undefined series id 3", old, offs[1])
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			want := c.seed(t, dir)
			before := dirImage(t, dir)
			trunc0 := mMemoryLogTruncations.Value()
			pm, err := NewPersistentMemory(8, dir)
			if err == nil {
				pm.Close()
				t.Fatalf("open succeeded, want an error with %q", want)
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("open returned %v, want an error with %q", err, want)
			}
			if err := sameImage(before, dirImage(t, dir)); err != nil {
				t.Fatalf("the failed open changed the directory: %v", err)
			}
			if got := mMemoryLogTruncations.Value() - trunc0; got != 0 {
				t.Fatalf("the failed open counted %v truncations", got)
			}
		})
	}
}

// TestPersistReopenSameAtEveryCPUCount reopens copies of one directory — a
// snapshot of more series than one recovery task takes, two generations
// after it, a series defined only in the log, backfills behind the frontier
// and a torn tail — at GOMAXPROCS 1, 2, 4 and 8, writes to each the same
// way and closes it. Every series' digest and length, the series list and
// every file must come out byte-identical.
func TestPersistReopenSameAtEveryCPUCount(t *testing.T) {
	const capacity = 16
	dir := t.TempDir()
	pm := openPersistent(t, capacity, dir)
	key := func(s int) string { return fmt.Sprintf("host%d/cpu/s%d", s/3, s) }
	tick := 0
	storeAll := func(from, to, points int) {
		for n := 0; n < points; n++ {
			tick++
			var subs []Request
			for s := from; s < to; s++ {
				subs = append(subs, Request{Op: OpStore, Series: key(s), Points: [][2]float64{{float64(tick), float64(s*tick%7) / 7}}})
			}
			if resp := pm.Handle(Request{Op: OpBatch, Batch: subs}); resp.Error != "" {
				t.Fatal(resp.Error)
			}
		}
	}
	backfill := func(s int) {
		pm.Backfill(key(s), [][2]float64{{float64(tick) - 2.5, 0.25}, {float64(tick) - 0.5, 0.75}})
	}
	storeAll(0, 3*snapChunk+5, capacity+4)
	if err := pm.journal.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	storeAll(0, 3*snapChunk+6, 3) // the last series is defined only in the log
	backfill(1)
	// A checkpoint that crashed after rotating: the snapshot is still the
	// one before, with two generations after it.
	pm.journal.mu.Lock()
	if err := pm.journal.flushLocked(); err != nil {
		t.Fatal(err)
	}
	if err := pm.journal.rotateLocked(); err != nil {
		t.Fatal(err)
	}
	pm.journal.mu.Unlock()
	storeAll(snapChunk, 3*snapChunk+7, 2)
	backfill(snapChunk + 1)
	backfill(3*snapChunk + 5)
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
	appendTornFrame(t, newestLog(t, dir))
	if snaps, wals := dirFiles(t, dir, snapExt), dirFiles(t, dir, walExt); len(snaps) != 1 || len(wals) != 2 {
		t.Fatalf("want one snapshot and two generations, have %v and %v", snaps, wals)
	}

	type recovered struct {
		digests []SeriesDigest
		names   []string
		lens    []int
		files   map[string][]byte
	}
	reopen := func(cpus int) (got recovered) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
		copied := copyDir(t, dir)
		pm, err := NewPersistentMemory(capacity, copied)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", cpus, err)
		}
		got.digests = pm.Digests("")
		got.names = pm.Handle(Request{Op: OpSeries}).Names
		for _, name := range got.names {
			got.lens = append(got.lens, pm.Len(name))
		}
		// Ids handed out after the open land in the files too.
		mustStore(t, pm, "after/reopen", [2]float64{1, 1})
		mustStore(t, pm, key(0), [2]float64{float64(tick + 1), 1})
		if err := pm.Close(); err != nil {
			t.Fatal(err)
		}
		got.files = dirImage(t, copied)
		return got
	}
	want := reopen(1)
	if len(want.names) != 3*snapChunk+7 {
		t.Fatalf("GOMAXPROCS 1 recovers %d series, want %d", len(want.names), 3*snapChunk+7)
	}
	for _, cpus := range []int{2, 4, 8} {
		got := reopen(cpus)
		if !sameDigests(got.digests, want.digests) {
			t.Errorf("GOMAXPROCS %d: digests differ from GOMAXPROCS 1's", cpus)
		}
		if fmt.Sprint(got.names, got.lens) != fmt.Sprint(want.names, want.lens) {
			t.Errorf("GOMAXPROCS %d: series and lengths %v %v, want %v %v", cpus, got.names, got.lens, want.names, want.lens)
		}
		if err := sameImage(want.files, got.files); err != nil {
			t.Errorf("GOMAXPROCS %d: files differ from GOMAXPROCS 1's: %v", cpus, err)
		}
	}
}
