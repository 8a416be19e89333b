package nwsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the durable half of Memory: one write-ahead log plus snapshot
// checkpoints under a directory. docs/ARCHITECTURE.md "The durable memory"
// is the normative description of the files, the frame and snapshot grammar,
// the checkpoint rule and the recovery rules; keep the two in sync.
//
// The contract in one paragraph: a mutation is applied to its series and its
// record appended to the journal's buffer under the same shard lock, so a
// series' log order is its apply order; the outermost Handle or Backfill
// commits before it answers, so an acknowledgement means write(2) returned
// for the frame holding the record. Nothing is fsynced except a snapshot
// before its rename and the directory after it.

const (
	walExt  = ".wal"  // a log generation: frames
	snapExt = ".snap" // a snapshot of every series as of the start of the same-numbered generation
	tmpExt  = ".tmp"  // a snapshot being written; a stray one is a crashed checkpoint
	textExt = ".log"  // a per-series "t,v" text log of the format before this one; refused

	frameHeader = 8 // uint32 payload length + uint32 CRC32C, little-endian

	// walCheckpointFloor keeps a small store from checkpointing on every
	// request: below it the rule "log bytes exceed snapshot bytes" is not
	// applied. Two fsyncs per MiB of log is under 1% of the ingest cost.
	walCheckpointFloor = 1 << 20

	// walScanBudget bounds the bytes recovery will checksum while deciding
	// whether a bad frame is the log's tail (see frameFollows).
	walScanBudget = 64 << 20
)

// Record kinds inside a frame payload.
const (
	recDefine   byte = 1 // uvarint id, string key: interns a series
	recStore    byte = 2 // uvarint id, points: appended past the frontier
	recBackfill byte = 3 // uvarint id, points: merge-inserted behind it
)

var (
	crc32c    = crc32.MakeTable(crc32.Castagnoli)
	snapMagic = []byte("NWSSNAP1")

	errFrameTorn    = errors.New("frame runs past the end of the file")
	errFrameCorrupt = errors.New("frame fails its checksum")
	errJournalClose = errors.New("durable memory is closed")
)

// --- frames ---

// frameSum is the CRC32C of a frame's length field and payload.
func frameSum(frame []byte) uint32 {
	return crc32.Update(crc32.Checksum(frame[:4], crc32c), crc32c, frame[frameHeader:])
}

// sealFrame fills in the header of frame, whose payload starts at
// frameHeader.
func sealFrame(frame []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	binary.LittleEndian.PutUint32(frame[4:], frameSum(frame))
}

// splitFrame returns the payload of the frame at the start of b and the
// frame's size. It allocates nothing: the payload aliases b.
func splitFrame(b []byte) (payload []byte, size int, err error) {
	if len(b) < frameHeader {
		return nil, 0, errFrameTorn
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-frameHeader) {
		return nil, 0, errFrameTorn
	}
	size = frameHeader + int(n)
	if n == 0 || binary.LittleEndian.Uint32(b[4:]) != frameSum(b[:size]) {
		return nil, 0, errFrameCorrupt
	}
	return b[frameHeader:size], size, nil
}

// frameFollows reports whether a whole valid frame starts anywhere in b —
// what tells corruption in the middle of a log (fail, keep what follows) from
// a damaged last frame (cut). When the answer would cost more than
// walScanBudget checksummed bytes it is "yes": refusing to open is the safe
// side of not knowing.
func frameFollows(b []byte) bool {
	budget := walScanBudget
	for ; len(b) > frameHeader; b = b[1:] {
		n := binary.LittleEndian.Uint32(b)
		if n == 0 || uint64(n) > uint64(len(b)-frameHeader) {
			continue
		}
		if budget -= int(n); budget < 0 {
			return true
		}
		if _, _, err := splitFrame(b); err == nil {
			return true
		}
	}
	return false
}

// --- records ---

// walRecord is one decoded journal record. pts is only valid until the next
// record is decoded.
type walRecord struct {
	kind byte
	id   uint32
	key  string       // recDefine
	pts  [][2]float64 // recStore, recBackfill
}

func appendDefine(b []byte, id uint32, key string) []byte {
	b = append(b, recDefine)
	b = putUvarint(b, uint64(id))
	return appendString(b, key)
}

func appendPointsRecord(b []byte, kind byte, id uint32, pts [][2]float64) []byte {
	b = append(b, kind)
	b = putUvarint(b, uint64(id))
	return appendPoints(b, pts)
}

// seriesID reads an interned id.
func (r *binReader) seriesID() (uint32, error) {
	id, err := r.uvarint()
	if err != nil || id > 1<<32-1 {
		return 0, errBinMalformed
	}
	return uint32(id), nil
}

// scratchPoints decodes a point array (empty allowed) into *scratch, reusing
// its storage. Like binReader.points it checks the count against the bytes
// left before growing anything.
func (r *binReader) scratchPoints(scratch *[][2]float64) ([][2]float64, error) {
	n, err := r.uvarint()
	if err != nil || n > uint64(r.rem())/2 {
		return nil, errBinMalformed
	}
	pts, err := r.appendPoints((*scratch)[:0], n)
	if err != nil {
		return nil, err
	}
	*scratch = pts
	return pts, nil
}

// decodeRecords walks a frame payload, calling fn for every record. The
// whole payload must be consumed.
func decodeRecords(payload []byte, scratch *[][2]float64, fn func(walRecord) error) error {
	r := binReader{b: payload}
	for r.rem() > 0 {
		var rec walRecord
		var err error
		if rec.kind, err = r.u8(); err != nil {
			return err
		}
		if rec.id, err = r.seriesID(); err != nil {
			return err
		}
		switch rec.kind {
		case recDefine:
			rec.key, err = r.str()
		case recStore, recBackfill:
			if rec.pts, err = r.scratchPoints(scratch); err == nil && len(rec.pts) == 0 {
				err = errBinMalformed
			}
		default:
			err = fmt.Errorf("unknown record kind %d", rec.kind)
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// --- snapshots ---
//
// A snapshot is snapMagic, then one entry per interned series in id order
// (uvarint id, string key, point array — empty allowed), then the CRC32C of
// everything before it.

func appendSnapshotEntry(b []byte, id uint32, key string, pts [][2]float64) []byte {
	b = putUvarint(b, uint64(id))
	b = appendString(b, key)
	return appendPoints(b, pts)
}

// snapshotBody verifies a snapshot image's magic and checksum and returns
// the entries between them.
func snapshotBody(data []byte) ([]byte, error) {
	end := len(data) - 4
	if end < len(snapMagic) || !bytes.HasPrefix(data, snapMagic) {
		return nil, errors.New("not a snapshot")
	}
	if binary.LittleEndian.Uint32(data[end:]) != crc32.Checksum(data[:end], crc32c) {
		return nil, errors.New("snapshot fails its checksum")
	}
	return data[len(snapMagic):end], nil
}

// snapEntry is a snapshot entry as skimSnapshot finds it: the id, the key,
// the point count and the bytes of the point array after the count, not yet
// decoded.
type snapEntry struct {
	id   uint32
	key  string
	n    uint64
	span []byte
}

// skimSnapshot walks a verified snapshot body without decoding a point: it
// reads each entry's id, key and count, and skips the 2n uvarints of its
// point array by counting their last bytes (skipUvarints). What the skim
// does not check — each uvarint's length and value — points checks.
func skimSnapshot(body []byte) ([]snapEntry, error) {
	var entries []snapEntry
	r := binReader{b: body}
	for r.rem() > 0 {
		id, err := r.seriesID()
		if err != nil {
			return nil, err
		}
		key, err := r.str()
		if err != nil {
			return nil, err
		}
		n, err := r.uvarint()
		if err != nil || n > uint64(r.rem())/2 {
			return nil, errBinMalformed
		}
		size, ok := skipUvarints(body[r.off:], 2*int(n))
		if !ok {
			return nil, errBinMalformed
		}
		entries = append(entries, snapEntry{id, key, n, body[r.off : r.off+size]})
		r.off += size
	}
	return entries, nil
}

// skipUvarints returns the length of the first n uvarints of b, found by
// counting the bytes with a clear continuation bit — each uvarint's last —
// eight at a time (^w & uvarintCont, as getUvarint finds its stop), and
// false when b holds fewer than n of them.
func skipUvarints(b []byte, n int) (int, bool) {
	off := 0
	// 64 bytes hold at most 64 last bytes, so while more than that are
	// wanted a whole block is skipped: its eight words' stop bits, each
	// word's shifted into a bit position of its own, fold into one word
	// and one count.
	for ; n > 64 && len(b)-off >= 64; off += 64 {
		w := b[off : off+64]
		stop := ^binary.LittleEndian.Uint64(w)&uvarintCont |
			(^binary.LittleEndian.Uint64(w[8:])&uvarintCont)>>1 |
			(^binary.LittleEndian.Uint64(w[16:])&uvarintCont)>>2 |
			(^binary.LittleEndian.Uint64(w[24:])&uvarintCont)>>3 |
			(^binary.LittleEndian.Uint64(w[32:])&uvarintCont)>>4 |
			(^binary.LittleEndian.Uint64(w[40:])&uvarintCont)>>5 |
			(^binary.LittleEndian.Uint64(w[48:])&uvarintCont)>>6 |
			(^binary.LittleEndian.Uint64(w[56:])&uvarintCont)>>7
		n -= bits.OnesCount64(stop)
	}
	for ; n > 0 && len(b)-off >= 8; off += 8 {
		stop := ^binary.LittleEndian.Uint64(b[off:]) & uvarintCont
		if c := bits.OnesCount64(stop); c < n {
			n -= c
			continue
		}
		for ; n > 1; n-- {
			stop &= stop - 1
		}
		return off + (bits.TrailingZeros64(stop)+1)/8, true
	}
	for ; n > 0 && off < len(b); off++ {
		if b[off] < 0x80 {
			n--
		}
	}
	return off, n == 0
}

// points decodes e's point array into *scratch, reusing its storage, and
// fails unless the points take exactly the bytes the skim gave them.
func (e *snapEntry) points(scratch *[][2]float64) ([][2]float64, error) {
	r := binReader{b: e.span}
	pts, err := r.appendPoints((*scratch)[:0], e.n)
	if err != nil || r.rem() != 0 {
		return nil, errBinMalformed
	}
	*scratch = pts
	return pts, nil
}

// --- the journal ---

// journal is the write-ahead log behind a durable Memory.
//
// Lock order: a shard lock, then mu. ckMu (one checkpoint at a time) is
// taken before either and never while holding one.
type journal struct {
	mem *Memory
	dir string

	ckMu sync.Mutex

	mu   sync.Mutex
	f    io.WriteCloser // the newest generation, opened for append
	gen  uint64         // its number
	off  int64          // its size: every byte below it has been handed to the OS
	snap int64          // size of the newest snapshot
	buf  []byte         // the frame being built: header space, then whole records
	ids  map[string]uint32
	keys []string // by id; append-only, so a captured prefix stays valid
	err  error    // sticky: after a failed write the tail of the log is unknown
}

func genPath(dir string, gen uint64, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("%010d%s", gen, ext))
}

// record appends one mutation of key to the frame being built. The caller
// holds key's shard lock.
func (j *journal) record(kind byte, key string, pts [][2]float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if j.buf == nil {
		j.buf = make([]byte, frameHeader, 4096)
	}
	id, ok := j.ids[key]
	if !ok {
		id = uint32(len(j.keys))
		j.ids[key] = id
		j.keys = append(j.keys, key)
		j.buf = appendDefine(j.buf, id, key)
	}
	j.buf = appendPointsRecord(j.buf, kind, id, pts)
}

// commit hands every buffered record to the OS as one frame, the caller's
// own and any that concurrent callers appended meanwhile; a caller that
// finds the buffer empty had its records written by another's commit, which
// returned before mu was released. It then runs a checkpoint if one is due
// and nobody else is running it.
func (j *journal) commit() error {
	j.mu.Lock()
	err := j.flushLocked()
	due := err == nil && j.dueLocked()
	j.mu.Unlock()
	if due && j.ckMu.TryLock() {
		defer j.ckMu.Unlock()
		if err := j.checkpoint(false); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return err
}

func (j *journal) flushLocked() error {
	if j.err != nil || len(j.buf) <= frameHeader {
		return j.err
	}
	sealFrame(j.buf)
	n, err := j.f.Write(j.buf)
	j.off += int64(n)
	j.buf = j.buf[:frameHeader]
	if err != nil {
		j.err = fmt.Errorf("writing %s: %w", genPath(j.dir, j.gen, walExt), err)
	}
	return j.err
}

// dueLocked is the checkpoint rule: the log written since the last snapshot
// has outgrown the snapshot itself.
func (j *journal) dueLocked() bool {
	return j.off > max(j.snap, walCheckpointFloor)
}

// checkpoint bounds the log: rotate to a new generation, write every series
// that existed at the rotation into one snapshot, make it durable, then
// delete the generations and snapshot it supersedes. The snapshot is fuzzy —
// writers keep going, so a series may already hold points whose records are
// in the new generation — which redo tolerates because stores at or before a
// frontier and backfills of timestamps already held are no-ops. The caller
// holds ckMu.
func (j *journal) checkpoint(force bool) error {
	j.mu.Lock()
	if err := j.flushLocked(); err != nil || !(force || j.dueLocked()) {
		j.mu.Unlock()
		return err
	}
	if err := j.rotateLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	gen, keys := j.gen, j.keys
	j.mu.Unlock()

	size, err := j.writeSnapshot(gen, keys)
	if err != nil {
		return err
	}
	// The snapshot and its directory entry are on disk: only now may what
	// it replaces go.
	if err := removeOlder(j.dir, gen); err != nil {
		return err
	}
	j.mu.Lock()
	j.snap = size
	j.mu.Unlock()
	mMemoryCompactions.Inc()
	return nil
}

// rotateLocked closes the current generation and starts the next one.
func (j *journal) rotateLocked() error {
	if err := j.f.Close(); err != nil {
		j.err = fmt.Errorf("closing %s: %w", genPath(j.dir, j.gen, walExt), err)
		return j.err
	}
	f, err := os.OpenFile(genPath(j.dir, j.gen+1, walExt), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.err = err
		return err
	}
	j.f, j.gen, j.off = f, j.gen+1, 0
	return nil
}

// writeSnapshot writes keys' series to the snapshot numbered gen: temp file,
// fsync, rename, fsync of the directory. Series interned after keys was
// captured have all their records in generation gen or later.
func (j *journal) writeSnapshot(gen uint64, keys []string) (size int64, err error) {
	path := genPath(j.dir, gen, snapExt)
	f, err := os.Create(path + tmpExt)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(path + tmpExt)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	var sum uint32
	emit := func(b []byte) error {
		sum = crc32.Update(sum, crc32c, b)
		size += int64(len(b))
		_, err := w.Write(b)
		return err
	}
	if err := emit(snapMagic); err != nil {
		return 0, err
	}
	var entry []byte
	var pts [][2]float64
	for id, key := range keys {
		pts = j.mem.appendSeries(pts[:0], key)
		entry = appendSnapshotEntry(entry[:0], uint32(id), key, pts)
		if err := emit(entry); err != nil {
			return 0, err
		}
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, sum)); err != nil {
		return 0, err
	}
	size += 4
	if err := w.Flush(); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(path+tmpExt, path); err != nil {
		return 0, err
	}
	return size, syncDir(j.dir)
}

// close flushes and closes the log; later mutations answer with an error.
func (j *journal) close() error {
	j.ckMu.Lock()
	defer j.ckMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if errors.Is(j.err, errJournalClose) {
		return nil
	}
	err := j.flushLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.err, j.buf = errJournalClose, nil
	return err
}

// --- recovery ---

// listGenerations returns the snapshot and log generation numbers in dir,
// ascending, and removes stray temp files. A directory still holding text
// logs is refused: nothing here reads them, and opening around them would
// serve a memory that has silently lost its history.
func listGenerations(dir string) (snaps, gens []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("nwsnet: reading memory dir: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		ext := filepath.Ext(name)
		if ent.IsDir() {
			continue
		}
		if ext == tmpExt {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, err
			}
			continue
		}
		if ext == textExt {
			return nil, nil, fmt.Errorf("nwsnet: memory dir %s holds the text log %s, a format this version cannot read; open the directory once with commit 4ff1130, the last that imports text logs", dir, name)
		}
		n, perr := strconv.ParseUint(strings.TrimSuffix(name, ext), 10, 64)
		if perr != nil {
			continue
		}
		switch ext {
		case snapExt:
			snaps = append(snaps, n)
		case walExt:
			gens = append(gens, n)
		}
	}
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return snaps, gens, nil
}

// removeOlder deletes every snapshot and log generation numbered below gen.
func removeOlder(dir string, gen uint64) error {
	snaps, gens, err := listGenerations(dir)
	if err != nil {
		return err
	}
	for _, list := range []struct {
		nums []uint64
		ext  string
	}{{gens, walExt}, {snaps, snapExt}} {
		for _, n := range list.nums {
			if n < gen {
				if err := os.Remove(genPath(dir, n, list.ext)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// snapChunk is the number of snapshot entries one recovery task decodes and
// stores: a few dozen, so the tasks even out over the cores while each is
// long enough that taking it costs nothing.
const snapChunk = 32

// openJournal recovers dir into m — the newest valid snapshot, then every
// generation from its number on, redone through the store and backfill paths
// — and returns the journal positioned to append. m must not have a journal
// yet, so the redo is not logged again.
//
// Recovery runs on up to GOMAXPROCS goroutines. The log generations are read
// on their own goroutine while the snapshot is read, verified and skimmed;
// then one task decodes the whole log into runs (redoLog) while the others
// decode and store the snapshot's entries a chunk at a time; last, the log's
// runs are applied in generation order. Nothing on disk changes until all of
// it has decoded.
func openJournal(m *Memory, dir string) (*journal, error) {
	j := &journal{mem: m, dir: dir, ids: make(map[string]uint32)}
	snaps, gens, err := listGenerations(dir)
	if err != nil {
		return nil, err
	}

	// Every generation a snapshot could need — from the oldest snapshot's
	// number on — is read while the snapshots are.
	for len(snaps) > 0 && len(gens) > 0 && gens[0] < snaps[0] {
		gens = gens[1:]
	}
	logs := make([]logGen, len(gens))
	for i, g := range gens {
		logs[i].path = genPath(dir, g, walExt)
	}
	read := make(chan struct{})
	go func(logs []logGen) {
		defer close(read)
		for i := range logs {
			logs[i].data, logs[i].err = os.ReadFile(logs[i].path)
		}
	}(logs)
	defer func() { <-read }()

	// Newest valid snapshot. One that fails its checksum is passed over for
	// an older one, which only works while that one's generations are all
	// still here — the contiguity check below decides.
	var base uint64
	var snapPath string
	var entries []snapEntry
	var snapErr error
	for i := len(snaps) - 1; i >= 0 && base == 0; i-- {
		path := genPath(dir, snaps[i], snapExt)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("nwsnet: reading snapshot: %w", err)
		}
		body, err := snapshotBody(data)
		if err != nil {
			if snapErr == nil {
				snapErr = fmt.Errorf("nwsnet: snapshot %s: %w", path, err)
			}
			continue
		}
		if entries, err = skimSnapshot(body); err != nil {
			return nil, fmt.Errorf("nwsnet: snapshot %s: %w", path, err)
		}
		for _, e := range entries {
			if err := j.define(e.id, e.key); err != nil {
				return nil, fmt.Errorf("nwsnet: snapshot %s: %w", path, err)
			}
		}
		base, snapPath, j.snap = snaps[i], path, int64(len(data))
	}
	if base == 0 && snapErr != nil {
		return nil, snapErr
	}

	for len(gens) > 0 && gens[0] < base {
		gens, logs = gens[1:], logs[1:]
	}
	var logErr error
	for i, g := range gens {
		if want := max(base, 1) + uint64(i); g != want {
			logErr = fmt.Errorf("nwsnet: memory dir %s: log generation %d is missing (found %d after snapshot %d)", dir, want, g, base)
			logs = nil
			break
		}
	}

	// The tasks: 0 is the log, the rest the snapshot's entries in chunks.
	// Only the log task defines ids from here on, so j.keys has one writer.
	tasks := 1 + (len(entries)+snapChunk-1)/snapChunk
	errs := make([]error, tasks)
	var next atomic.Int64
	work := func() {
		var scratch [][2]float64
		for t := int(next.Add(1) - 1); t < tasks; t = int(next.Add(1) - 1) {
			if t == 0 {
				<-read
				errs[0] = j.redoLog(logs, &scratch)
			} else {
				errs[t] = m.storeEntries(entries[(t-1)*snapChunk:min(t*snapChunk, len(entries))], &scratch)
			}
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), tasks); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	// Series came into being on several goroutines, each setting the gauge.
	mMemorySeries.Set(float64(m.nSeries.Load()))

	// A snapshot error first, then the log's: the first by generation and
	// offset, as the log task stops at it.
	for _, err := range errs[1:] {
		if err != nil {
			return nil, fmt.Errorf("nwsnet: snapshot %s: %w", snapPath, err)
		}
	}
	if logErr == nil {
		logErr = errs[0]
	}
	if logErr != nil {
		return nil, logErr
	}
	if n := len(logs); n > 0 && logs[n-1].cut >= 0 {
		if err := os.Truncate(logs[n-1].path, int64(logs[n-1].cut)); err != nil {
			return nil, fmt.Errorf("nwsnet: truncating torn log %s: %w", logs[n-1].path, err)
		}
		mMemoryLogTruncations.Inc()
	}
	for i := range logs {
		if err := j.applyLog(&logs[i]); err != nil {
			return nil, err
		}
	}
	if err := removeOlder(dir, base); err != nil {
		return nil, err
	}

	j.gen = max(base, 1)
	if len(gens) > 0 {
		j.gen = gens[len(gens)-1]
	}
	f, err := os.OpenFile(genPath(dir, j.gen, walExt), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	j.f, j.off = f, st.Size()
	return j, nil
}

// storeEntries decodes snapshot entries and stores each one's points as
// one store of the whole series.
func (m *Memory) storeEntries(entries []snapEntry, scratch *[][2]float64) error {
	for i := range entries {
		pts, err := entries[i].points(scratch)
		if err != nil {
			return err
		}
		if len(pts) == 0 {
			continue
		}
		if err := respErr(m.handleStore(&Request{Series: entries[i].key, Points: pts})); err != nil {
			return err
		}
	}
	return nil
}

// respErr turns a store the memory refused during recovery — nothing the
// live path could have logged — into an error.
func respErr(resp Response) error {
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	return nil
}

// define interns key as id during recovery. Ids are dense and handed out in
// order, so anything but the next id, or a repeat of a known pair, means the
// files do not belong together.
func (j *journal) define(id uint32, key string) error {
	switch {
	case int(id) == len(j.keys):
		j.ids[key] = id
		j.keys = append(j.keys, key)
		return nil
	case int(id) < len(j.keys) && j.keys[id] == key:
		return nil
	}
	return fmt.Errorf("series id %d (%q) out of sequence: %d ids known", id, key, len(j.keys))
}

// redoRun is a stretch of one series' log: consecutive store records
// concatenated — a store is a fold over its points, so one store of the lot
// has the effect of the records one by one — or one backfill record.
type redoRun struct {
	pts      [][2]float64
	backfill bool
}

// logGen is one log generation on its way through recovery.
type logGen struct {
	path string
	data []byte // the file, until it is decoded
	err  error  // from reading it
	runs [][]redoRun
	cut  int // where its torn tail starts, or -1
}

// redoLog decodes the log generations in order, stopping at the first that
// fails (see decode). Each generation's file is dropped once decoded.
func (j *journal) redoLog(logs []logGen, scratch *[][2]float64) error {
	for i := range logs {
		g := &logs[i]
		if g.err != nil {
			return fmt.Errorf("nwsnet: reading log: %w", g.err)
		}
		err := j.decode(g, i == len(logs)-1, scratch)
		g.data = nil
		if err != nil {
			return err
		}
	}
	return nil
}

// decode turns one log generation into runs: every frame is decoded, each
// series' records grouped into runs in log order, to be applied by applyLog
// through the store and backfill paths. Series are independent, so only each
// one's own order matters; the fuzzy snapshot's idempotence argument holds
// series by series. Everything the apply could refuse is checked here, so
// the first bad record fails the open with its file and frame offset, as it
// would applied in log order.
//
// A bad frame is an error naming the file and offset — except in the newest
// generation when no whole frame follows it: that is a write cut short by a
// crash (or a damaged last frame), and g.cut records the last good frame's
// end, where the file is cut once everything has decoded.
func (j *journal) decode(g *logGen, newest bool, scratch *[][2]float64) error {
	data := g.data
	g.cut = -1
	for off := 0; off < len(data); {
		payload, size, err := splitFrame(data[off:])
		if err != nil {
			if !newest || frameFollows(data[off+1:]) {
				return fmt.Errorf("nwsnet: log %s: offset %d: %w", g.path, off, err)
			}
			g.cut = off
			break
		}
		err = decodeRecords(payload, scratch, func(rec walRecord) error {
			if rec.kind == recDefine {
				return j.define(rec.id, rec.key)
			}
			if int(rec.id) >= len(j.keys) {
				return fmt.Errorf("record for undefined series id %d", rec.id)
			}
			backfill := rec.kind == recBackfill
			if !backfill {
				// What handleStore would refuse; a backfill refuses nothing.
				if err := checkStore(j.keys[rec.id], rec.pts); err != nil {
					return err
				}
			}
			if int(rec.id) >= len(g.runs) {
				g.runs = append(g.runs, make([][]redoRun, len(j.keys)-len(g.runs))...)
			}
			rs := g.runs[rec.id]
			if n := len(rs); n > 0 && !backfill && !rs[n-1].backfill {
				rs[n-1].pts = append(rs[n-1].pts, rec.pts...)
			} else {
				g.runs[rec.id] = append(rs, redoRun{append([][2]float64(nil), rec.pts...), backfill})
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("nwsnet: log %s: frame at offset %d: %w", g.path, off, err)
		}
		off += size
	}
	return nil
}

// applyLog applies one decoded generation, series by series, each series'
// runs in log order, and drops the runs.
func (j *journal) applyLog(g *logGen) error {
	for id, rs := range g.runs {
		for _, run := range rs {
			if run.backfill {
				j.mem.backfill(j.keys[id], run.pts)
			} else if err := respErr(j.mem.handleStore(&Request{Series: j.keys[id], Points: run.pts})); err != nil {
				return fmt.Errorf("nwsnet: log %s: series %q: %w", g.path, j.keys[id], err)
			}
		}
	}
	g.runs = nil
	return nil
}
