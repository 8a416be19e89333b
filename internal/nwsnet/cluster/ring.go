package cluster

import (
	"sort"
	"strconv"
)

// Ring is a deterministic consistent-hash ring: each node contributes
// vnodes virtual points placed by a seeded FNV-1a hash, and a key is owned
// by the node whose point first follows the key's hash clockwise. The same
// (nodes, vnodes, seed) triple always yields the same ring regardless of
// input order, so every client and server that shares a view routes
// identically without coordination; when one node joins or leaves, only the
// key ranges adjacent to its points move (~1/n of the keyspace), which is
// what bounds rebalancing handoff traffic.
type Ring struct {
	vnodes int
	seed   uint64
	nodes  []string    // sorted, distinct
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given node IDs. Duplicate IDs collapse to
// one node; nil is returned for an empty node set. vnodes <= 0 selects 64.
func NewRing(nodeIDs []string, vnodes int, seed uint64) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	seen := make(map[string]bool, len(nodeIDs))
	nodes := make([]string, 0, len(nodeIDs))
	for _, id := range nodeIDs {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		nodes = append(nodes, id)
	}
	if len(nodes) == 0 {
		return nil
	}
	sort.Strings(nodes)
	r := &Ring{vnodes: vnodes, seed: seed, nodes: nodes}
	r.points = make([]ringPoint, 0, len(nodes)*vnodes)
	var buf []byte
	for ni, id := range nodes {
		for v := 0; v < vnodes; v++ {
			buf = append(buf[:0], id...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			r.points = append(r.points, ringPoint{hash: r.hash(buf), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node ID so construction
		// stays order-independent.
		return r.nodes[r.points[i].node] < r.nodes[r.points[j].node]
	})
	return r
}

// hash is FNV-1a over the seed bytes then the key bytes, so distinct seeds
// yield independent ring layouts.
func (r *Ring) hash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	s := r.seed
	for i := 0; i < 8; i++ {
		h ^= s & 0xff
		h *= prime64
		s >>= 8
	}
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	// FNV alone clusters on near-identical inputs (vnode labels differ in a
	// suffix digit); a murmur-style finalizer avalanches the bits so ring
	// points spread evenly.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Nodes returns the ring's node IDs in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// succ returns the index of the first ring point at or after h, wrapping.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the node owning key — the first owner in preference order.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.points[r.succ(r.hash([]byte(key)))].node]
}

// Owners returns up to n distinct nodes owning key, in ring preference
// order: the successor point's node first, then the next points' nodes
// skipping repeats. With n >= len(nodes) every node appears exactly once.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	start := r.succ(r.hash([]byte(key)))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if taken[p.node] {
			continue
		}
		taken[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}

// Shares counts how many of the given keys each node primarily owns —
// the balance diagnostic behind `nwsctl ring`.
func (r *Ring) Shares(keys []string) map[string]int {
	out := make(map[string]int, len(r.nodes))
	for _, id := range r.nodes {
		out[id] = 0
	}
	for _, k := range keys {
		out[r.Owner(k)]++
	}
	return out
}
