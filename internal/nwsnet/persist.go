package nwsnet

import (
	"bufio"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// PersistentMemory is a Memory whose series survive restarts — the role of
// the circular state files in the real NWS memory process. Every accepted
// store and backfill is appended to one binary write-ahead log under a
// directory before it is acknowledged, the log is bounded by snapshot
// checkpoints, and opening the directory again loads the newest snapshot and
// redoes the log after it (persist_wal.go; docs/ARCHITECTURE.md "The durable
// memory").
type PersistentMemory struct {
	*Memory
}

// NewPersistentMemory opens (creating if needed) a memory rooted at dir with
// the given per-series capacity, recovering whatever the directory holds. A
// directory of the earlier per-series "t,v" text logs is imported once and
// the text logs removed.
func NewPersistentMemory(capacity int, dir string) (*PersistentMemory, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nwsnet: memory dir: %w", err)
	}
	m := NewMemory(capacity)
	j, err := openJournal(m, dir)
	if err != nil {
		return nil, err
	}
	m.journal = j
	pm := &PersistentMemory{Memory: m}
	if err := pm.importLegacy(dir); err != nil {
		pm.Close()
		return nil, err
	}
	return pm, nil
}

// Checkpoint writes a snapshot of every series now and drops the log
// generations it supersedes. The memory does this by itself whenever the log
// outgrows the last snapshot; an operator wants it before copying the
// directory.
func (pm *PersistentMemory) Checkpoint() error { return pm.journal.checkpointNow() }

// Close hands anything still buffered to the OS and closes the log. Stores
// and backfills after Close answer with an error; reads keep working.
func (pm *PersistentMemory) Close() error { return pm.journal.close() }

// legacyExt names the per-series text logs of the format before the
// write-ahead log: one url.PathEscape(key)+".log" file of "t,v" lines each.
const legacyExt = ".log"

// importLegacy stores every legacy text log in dir through the journal,
// checkpoints, and only then removes the text logs: a crash anywhere in
// between repeats the import, which the store path's dedup makes harmless.
func (pm *PersistentMemory) importLegacy(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+legacyExt))
	if err != nil || len(paths) == 0 {
		return err
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), legacyExt)
		key, err := url.PathUnescape(name)
		if err != nil {
			return fmt.Errorf("nwsnet: undecodable log name %q: %w", filepath.Base(path), err)
		}
		pts, trunc, err := readLog(path)
		if err != nil {
			return err
		}
		if trunc >= 0 {
			// The log ends in a corrupt or torn line — a crash mid-append.
			// Everything before it imports cleanly.
			mMemoryLogTruncations.Inc()
		}
		if len(pts) == 0 {
			continue
		}
		if resp := pm.Handle(Request{Op: OpStore, Series: key, Points: pts}); resp.Error != "" {
			return fmt.Errorf("nwsnet: importing %q: %s", key, resp.Error)
		}
	}
	if err := pm.Checkpoint(); err != nil {
		return fmt.Errorf("nwsnet: checkpoint after import: %w", err)
	}
	for _, path := range paths {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// readLog parses a legacy per-series text log. It tolerates a damaged tail —
// the signature of a crash mid-append: a line that does not parse, or a final
// line without its terminating newline (the writer always appended whole
// "t,v\n" records, so an unterminated line is torn even if its prefix
// happens to parse). On damage it returns the points read so far plus the
// byte offset of the damage; truncateAt is -1 when the log is clean. Damage
// is only forgiven at the tail: a malformed line with valid lines after it
// means the rest of the log is unreachable, as it was for the replay this
// import replaces.
func readLog(path string) (pts [][2]float64, truncateAt int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, -1, fmt.Errorf("nwsnet: opening log: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var offset int64 // byte offset of the start of the current line
	for {
		line, rerr := r.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, -1, fmt.Errorf("nwsnet: reading log %s: %w", path, rerr)
		}
		if line == "" && rerr == io.EOF {
			return pts, -1, nil
		}
		terminated := strings.HasSuffix(line, "\n")
		if !terminated {
			return pts, offset, nil
		}
		if s := strings.TrimSpace(line); s != "" {
			t, v, perr := parseLogLine(s)
			if perr != nil {
				return pts, offset, nil
			}
			pts = append(pts, [2]float64{t, v})
		}
		offset += int64(len(line))
		if rerr == io.EOF {
			return pts, -1, nil
		}
	}
}

// parseLogLine parses one trimmed, non-empty "t,v" log record.
func parseLogLine(s string) (t, v float64, err error) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("nwsnet: malformed log line %q", s)
	}
	t, err = strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("nwsnet: bad log timestamp: %w", err)
	}
	v, err = strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("nwsnet: bad log value: %w", err)
	}
	return t, v, nil
}

// syncDir fsyncs a directory, making renames inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

var _ Handler = (*PersistentMemory)(nil)
