package nwsnet

import (
	"context"
	"sync"
	"time"
)

// Repairer is the anti-entropy half of the repair plane: it runs beside one
// memory replica, periodically pulls per-series digests from its peer
// replicas, and merges whatever the local store is missing through
// Memory.Backfill. Pulls ride the existing batch-fetch path; merges are
// idempotent; every replica repairing against every peer makes the group
// convergent — once writes stop, a bounded number of rounds leaves all
// replicas bit-identical (equal digests imply identical content, see
// SeriesDigest).
//
// The comparison is frontier-aware so live traffic stays cheap: a local
// series whose prefix up to the peer's frontier matches the peer's digest
// is in sync (the local store merely has newer points the peer will pull
// from us), a series that is only behind pulls just the missing tail, and
// only a genuine body mismatch (dropped hints, a trimmed ring) refetches
// the series.
type Repairer struct {
	tr    Transport
	mem   *Memory
	peers []string

	mu    sync.Mutex
	stats RepairStats

	loopMu   sync.Mutex
	started  bool
	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// RepairStats counts one repairer's activity (the per-process totals are
// also exported as nws_repair_rounds_total / nws_repair_points_recovered_total).
type RepairStats struct {
	Rounds          uint64 `json:"rounds"`
	PointsRecovered uint64 `json:"points_recovered"`
}

// repairFetchChunk bounds how many series one repair pull batches into a
// single round trip.
const repairFetchChunk = 64

// NewRepairer builds a repairer that heals mem against the replica peers
// (the local replica's own address must not be listed): the peer set of
// RepairRound and the background loop. A repairer whose peers change — a
// cluster member's — passes them to RepairFrom each round instead.
func NewRepairer(tr Transport, mem *Memory, peers []string) *Repairer {
	return &Repairer{
		tr:     tr,
		mem:    mem,
		peers:  append([]string(nil), peers...),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
}

// Stats reports this repairer's counters.
func (rp *Repairer) Stats() RepairStats {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.stats
}

// RepairRound runs one full anti-entropy round against the configured
// peers, over every series they hold.
func (rp *Repairer) RepairRound(ctx context.Context) (int, error) {
	return rp.RepairFrom(ctx, rp.peers, nil)
}

// RepairFrom runs one anti-entropy round: digests from every peer in the
// order given, then the pulls they imply, restricted to the series owned
// accepts (nil accepts all — a fixed replica holds everything; a cluster
// member passes "I am an owner under my view"). It returns how many points
// were recovered and the first peer error (a peer being down fails that
// peer's leg, not the round — the others still repair).
func (rp *Repairer) RepairFrom(ctx context.Context, peers []string, owned func(series string) bool) (int, error) {
	recovered := 0
	var firstErr error
	for _, peer := range peers {
		n, err := rp.repairFromPeer(ctx, peer, owned)
		recovered += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	rp.mu.Lock()
	rp.stats.Rounds++
	rp.stats.PointsRecovered += uint64(recovered)
	rp.mu.Unlock()
	mRepairRounds.Inc()
	mRepairPointsRecovered.Add(uint64(recovered))
	return recovered, firstErr
}

// inSyncWith reports whether the local series already covers a peer digest:
// the stored prefix up to the peer's frontier has the same count and
// checksum.
func (rp *Repairer) inSyncWith(d SeriesDigest) bool {
	p := rp.mem.PrefixDigest(d.Series, d.Frontier)
	return p.Count == d.Count && p.Sum == d.Sum
}

// repairFromPeer diffs one peer's digests against the local store and pulls
// what is missing: first the tails of series that are merely behind, then a
// full refetch of any series whose body still mismatches.
func (rp *Repairer) repairFromPeer(ctx context.Context, peer string, owned func(series string) bool) (int, error) {
	digs, err := rp.tr.DigestsCtx(ctx, peer, "")
	if err != nil {
		return 0, err
	}
	var tails, fulls []BatchFetch
	var tailDigests []SeriesDigest
	for _, d := range digs {
		if (owned != nil && !owned(d.Series)) || rp.inSyncWith(d) {
			continue
		}
		local, ok := rp.mem.Digest(d.Series)
		if ok && local.Frontier < d.Frontier {
			// Behind but possibly a clean prefix: pull just [frontier, ∞)
			// first (the fetch includes the frontier point itself; Backfill
			// skips the duplicate).
			tails = append(tails, BatchFetch{Series: d.Series, From: local.Frontier})
			tailDigests = append(tailDigests, d)
			continue
		}
		fulls = append(fulls, BatchFetch{Series: d.Series})
	}
	recovered, err := rp.pull(ctx, peer, tails)
	if err != nil {
		return recovered, err
	}
	// A tail pull closes a pure lag; anything still mismatched diverged in
	// the body (dropped hints mid-history, capacity trims) and needs the
	// whole series.
	for _, d := range tailDigests {
		if !rp.inSyncWith(d) {
			fulls = append(fulls, BatchFetch{Series: d.Series})
		}
	}
	n, err := rp.pull(ctx, peer, fulls)
	recovered += n
	return recovered, err
}

// pull batch-fetches the given ranges from a peer and merges them locally,
// returning how many points were actually inserted.
func (rp *Repairer) pull(ctx context.Context, peer string, fetches []BatchFetch) (int, error) {
	recovered := 0
	for len(fetches) > 0 {
		chunk := fetches
		if len(chunk) > repairFetchChunk {
			chunk = chunk[:repairFetchChunk]
		}
		fetches = fetches[len(chunk):]
		results, err := rp.tr.FetchBatchCtx(ctx, peer, chunk)
		if err != nil {
			return recovered, err
		}
		for i, res := range results {
			if res.Err != nil || len(res.Points) == 0 {
				// A per-sub rejection (the peer trimmed the series away
				// between digest and fetch, say) just skips this series
				// until the next round.
				continue
			}
			recovered += rp.mem.Backfill(chunk[i].Series, res.Points)
		}
	}
	return recovered, nil
}

// Start launches the background RepairLoop at the given cadence; Stop ends
// it. Starting an already-started (or stopped) repairer is a no-op.
func (rp *Repairer) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Minute
	}
	rp.loopMu.Lock()
	defer rp.loopMu.Unlock()
	if rp.started {
		return
	}
	select {
	case <-rp.stopCh:
		return // already stopped
	default:
	}
	rp.started = true
	go rp.repairLoop(interval)
}

// repairLoop is the background anti-entropy driver.
func (rp *Repairer) repairLoop(interval time.Duration) {
	defer close(rp.doneCh)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rp.stopCh:
			return
		case <-t.C:
			rp.RepairRound(context.Background())
		}
	}
}

// Stop ends the background loop (if Start ran) and waits for it to exit.
func (rp *Repairer) Stop() {
	rp.loopMu.Lock()
	started := rp.started
	rp.loopMu.Unlock()
	rp.stopOnce.Do(func() { close(rp.stopCh) })
	if started {
		<-rp.doneCh
	}
}
