package nwsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	b = binary.AppendUvarint(b, uint64(id))
	return appendString(b, key)
}

func appendPointsRecord(b []byte, kind byte, id uint32, pts [][2]float64) []byte {
	b = append(b, kind)
	b = binary.AppendUvarint(b, uint64(id))
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
	b = binary.AppendUvarint(b, uint64(id))
	b = appendString(b, key)
	return appendPoints2(b, pts)
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

// decodeSnapshotEntries calls fn for every entry of a verified snapshot
// body; pts is only valid during the call.
func decodeSnapshotEntries(body []byte, scratch *[][2]float64, fn func(id uint32, key string, pts [][2]float64) error) error {
	r := binReader{b: body}
	for r.rem() > 0 {
		id, err := r.seriesID()
		if err != nil {
			return err
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		pts, err := r.scratchPoints(scratch)
		if err != nil {
			return err
		}
		if err := fn(id, key, pts); err != nil {
			return err
		}
	}
	return nil
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

// checkpointNow runs a checkpoint whether or not one is due, after any that
// is already running.
func (j *journal) checkpointNow() error {
	j.ckMu.Lock()
	defer j.ckMu.Unlock()
	return j.checkpoint(true)
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

// openJournal recovers dir into m — the newest valid snapshot, then every
// generation from its number on, redone through the store and backfill paths
// — and returns the journal positioned to append. m must not have a journal
// yet, so the redo is not logged again.
func openJournal(m *Memory, dir string) (*journal, error) {
	j := &journal{mem: m, dir: dir, ids: make(map[string]uint32)}
	snaps, gens, err := listGenerations(dir)
	if err != nil {
		return nil, err
	}
	var scratch [][2]float64

	// Newest valid snapshot. One that fails its checksum is passed over for
	// an older one, which only works while that one's generations are all
	// still here — the contiguity check below decides.
	var base uint64
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
		err = decodeSnapshotEntries(body, &scratch, func(id uint32, key string, pts [][2]float64) error {
			if err := j.define(id, key); err != nil {
				return err
			}
			if len(pts) == 0 {
				return nil
			}
			return respErr(m.handleStore(Request{Series: key, Points: pts}))
		})
		if err != nil {
			return nil, fmt.Errorf("nwsnet: snapshot %s: %w", path, err)
		}
		base, j.snap = snaps[i], int64(len(data))
	}
	if base == 0 && snapErr != nil {
		return nil, snapErr
	}

	for len(gens) > 0 && gens[0] < base {
		gens = gens[1:]
	}
	for i, g := range gens {
		if want := max(base, 1) + uint64(i); g != want {
			return nil, fmt.Errorf("nwsnet: memory dir %s: log generation %d is missing (found %d after snapshot %d)", dir, want, g, base)
		}
	}
	for i, g := range gens {
		if err := j.redo(genPath(dir, g, walExt), i == len(gens)-1, &scratch); err != nil {
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

// redo applies one log generation. A bad frame is an error naming the file
// and offset — except in the newest generation when no whole frame follows
// it: that is a write cut short by a crash (or a damaged last frame), and the
// file is cut back to the last good frame.
func (j *journal) redo(path string, newest bool, scratch *[][2]float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("nwsnet: reading log: %w", err)
	}
	off := 0
	for off < len(data) {
		payload, size, err := splitFrame(data[off:])
		if err != nil {
			if !newest || frameFollows(data[off+1:]) {
				return fmt.Errorf("nwsnet: log %s: offset %d: %w", path, off, err)
			}
			if err := os.Truncate(path, int64(off)); err != nil {
				return fmt.Errorf("nwsnet: truncating torn log %s: %w", path, err)
			}
			mMemoryLogTruncations.Inc()
			return nil
		}
		err = decodeRecords(payload, scratch, func(rec walRecord) error {
			if rec.kind == recDefine {
				return j.define(rec.id, rec.key)
			}
			if int(rec.id) >= len(j.keys) {
				return fmt.Errorf("record for undefined series id %d", rec.id)
			}
			if rec.kind == recBackfill {
				j.mem.backfill(j.keys[rec.id], rec.pts)
				return nil
			}
			return respErr(j.mem.handleStore(Request{Series: j.keys[rec.id], Points: rec.pts}))
		})
		if err != nil {
			return fmt.Errorf("nwsnet: log %s: frame at offset %d: %w", path, off, err)
		}
		off += size
	}
	return nil
}
