package nwsnet

import (
	"fmt"
	"os"
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
// the given per-series capacity, recovering whatever the directory holds.
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
	return &PersistentMemory{Memory: m}, nil
}

// Checkpoint writes a snapshot of every series now and drops the log
// generations it supersedes. The memory does this by itself whenever the log
// outgrows the last snapshot; an operator wants it before copying the
// directory.
func (pm *PersistentMemory) Checkpoint() error { return pm.journal.checkpointNow() }

// Close hands anything still buffered to the OS and closes the log. Stores
// and backfills after Close answer with an error; reads keep working.
func (pm *PersistentMemory) Close() error { return pm.journal.close() }

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
