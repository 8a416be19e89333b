package nwsnet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
	"nwscpu/internal/resilience/chaos"
)

// rawV2 is a bare v2 peer for tests that must see the server's own bytes: it
// dials addr and sends the preamble; send frames one payload, recv reads one
// response frame (the first call consumes the accept byte, a wrong one
// garbles the frame).
func rawV2(t *testing.T, addr string) (net.Conn, func([]byte), func() (uint64, Response, error)) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write(wirePreamble[:])
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	w, r, buf := bufio.NewWriter(nc), bufio.NewReader(nc), []byte(nil)
	return nc, func(p []byte) { writeFrame(w, p); w.Flush() }, func() (uint64, Response, error) {
		if b, _ := r.Peek(1); buf == nil && len(b) == 1 && b[0] == wireVersionBinary {
			r.Discard(1)
		}
		p, _, err := readFrame(r, &buf)
		if err != nil {
			return 0, Response{}, err
		}
		return decodeResponsePayload(p)
	}
}

// mustEncode encodes req as a v2 request payload tagged id.
func mustEncode(t *testing.T, id uint64, req Request) []byte {
	t.Helper()
	p, err := encodeRequestPayload(nil, id, &req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNonV2PeerRefused pins the end of wire protocol v1: a peer that does
// not open with the v2 preamble — a v1 JSON line, a preamble asking for
// version 1, a preamble with bad magic — gets the one refusal line naming the
// last commit that served v1, then a close, and never reaches the handler;
// each counts exactly one decode error.
func TestNonV2PeerRefused(t *testing.T) {
	if !strings.Contains(refusal, "commit a7afa36") {
		t.Fatalf("refusal %q does not name the last commit that served v1", refusal)
	}
	badMagic := wirePreamble
	badMagic[2] = 'X'
	v1Preamble := wirePreamble
	v1Preamble[4] = 1
	for _, c := range []struct {
		name  string
		first []byte
	}{
		{"json-line", []byte(`{"op":"ping"}` + "\n")},
		{"version-1", v1Preamble[:]},
		{"bad-magic", badMagic[:]},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			_, addr := startServerLimits(t, handlerFunc(func(Request) Response { calls++; return Response{} }), ServerLimits{})
			dec0 := mWireDecodeErrors.Value()
			nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := nc.Write(c.first); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(nc)
			if err != nil {
				t.Fatalf("refused connection: %v", err)
			}
			if string(got) != refusal {
				t.Fatalf("answer %q, want the refusal line %q", got, refusal)
			}
			if calls != 0 {
				t.Fatalf("handler called %d times for a refused peer", calls)
			}
			if got := mWireDecodeErrors.Value() - dec0; got != 1 {
				t.Fatalf("decode errors delta = %d, want 1", got)
			}
		})
	}
}

// sameAnswer compares two responses as the wire does: the codec is
// canonical, so equal encodings mean equal answers (an absent and an empty
// section alike).
func sameAnswer(t *testing.T, a, b Response) bool {
	ea, err := encodeResponsePayload(nil, 1, &a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := encodeResponsePayload(nil, 1, &b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb)
}

// errClass names the classification an error carries across the transports.
func errClass(err error) string {
	_, moved := IsMoved(err)
	return fmt.Sprintf("busy=%v moved=%v terminal=%v", IsBusy(err), moved, resilience.IsTerminal(err))
}

// TestTransportsAnswerIdentically sends one request sweep — every memory op,
// the registry lifecycle, a busy shed and an ownership redirect — through
// Client over loopback and through LocalTransport, each against its own
// identically prepared handlers, and requires equal answers: equal
// responses, equal errors, equal error classes. The transports differ only in
// how a request reaches a Handler; classification is the calls surface both
// share. NewLocalBackend, a ReplicaGroup of one over a LocalTransport, must
// agree with both on the typed memory calls.
func TestTransportsAnswerIdentically(t *testing.T) {
	cfg := cluster.Config{Replication: 1, VNodes: 16}
	handlers := func() map[string]Handler {
		node := NewClusterNode("me", NewMemory(0))
		node.AdoptView(cluster.View{Epoch: 1, Config: cfg, Members: []cluster.Member{
			{ID: "other", Kind: string(KindMemory), Addr: "o:1", State: cluster.StateActive}}})
		return map[string]Handler{
			"mem":   NewMemory(100),
			"ns":    NewNameServer(time.Minute, cfg),
			"busy":  handlerFunc(func(Request) Response { return busyResp("synthetic shed") }),
			"moved": node,
		}
	}
	// Both transports address a role by its loopback server's address, so
	// even the error texts, which name the endpoint, must match.
	addrs := map[string]string{}
	for role, h := range handlers() {
		_, addrs[role] = startServerLimits(t, h, ServerLimits{})
	}
	local := NewLocalTransport()
	for role, h := range handlers() {
		local.Register(addrs[role], h)
	}
	client := released(t, NewClientOptions(ClientOptions{Timeout: 2 * time.Second, Retry: resilience.Policy{MaxAttempts: 1}}))

	pts := [][2]float64{{1, 0.5}, {2, 0.6}}
	member := func(id string, s cluster.State) *cluster.Member {
		return &cluster.Member{ID: id, Kind: string(KindMemory), Addr: "a:1", State: s}
	}
	sweep := []struct {
		to  string
		req Request
	}{
		{"mem", Request{Op: OpPing}},
		{"mem", Request{Op: OpStore, Series: "k", Points: pts}},
		{"mem", Request{Op: OpStore, Series: "k", Points: [][2]float64{{2, 0.9}, {3, 0.7}}}}, // dedup overlap
		{"mem", Request{Op: OpStore, Series: ""}},                                            // rejection
		{"mem", Request{Op: OpFetch, Series: "k"}},
		{"mem", Request{Op: OpFetch, Series: "k", From: 5, To: 2}},
		{"mem", Request{Op: OpFetch, Series: "k", From: 2, To: 5, Max: 1}},
		{"mem", Request{Op: OpFetch, Series: "missing"}},
		{"mem", Request{Op: OpSeries}},
		{"mem", Request{Op: OpBatch, Batch: []Request{
			{Op: OpStore, Series: "b", Points: [][2]float64{{1, 1}}},
			{Op: OpFetch, Series: "b"},
			{Op: OpStore},
		}}},
		{"mem", Request{Op: OpBatch, Batch: []Request{{Op: OpBatch, Batch: []Request{{Op: OpPing}}}}}},
		{"mem", Request{Op: OpBackfill, Series: "k", Points: [][2]float64{{0.5, 0.1}}}},
		{"mem", Request{Op: OpBackfill, Series: "k"}}, // rejection
		{"mem", Request{Op: OpDigest}},
		{"mem", Request{Op: OpDigest, Series: "k"}},
		{"ns", Request{Op: OpJoin, Member: member("m0", cluster.StateJoining)}},
		{"ns", Request{Op: OpJoin, Member: member("m0", cluster.StateActive)}},
		{"ns", Request{Op: OpLease, Member: &cluster.Member{ID: "m0"}, Epoch: 0}}, // stale: view attached
		{"ns", Request{Op: OpLease, Member: &cluster.Member{ID: "m0"}, Epoch: 1}}, // current: bare OK
		{"ns", Request{Op: OpLease, Member: &cluster.Member{ID: "ghost"}, Epoch: 1}},
		{"ns", Request{Op: OpView}},
		{"ns", Request{Op: OpView, Epoch: 1}}, // not modified
		{"busy", Request{Op: OpPing}},
		{"moved", Request{Op: OpStore, Series: "k", Points: pts}},
	}
	ctx := context.Background()
	for i, c := range sweep {
		wr, werr := client.call(ctx, addrs[c.to], c.req)
		lr, lerr := local.call(ctx, addrs[c.to], c.req)
		if !sameAnswer(t, wr, lr) || fmt.Sprint(werr) != fmt.Sprint(lerr) || errClass(werr) != errClass(lerr) {
			t.Errorf("case %d (%s %s):\n  client %+v, %v (%s)\n   local %+v, %v (%s)",
				i, c.to, c.req.Op, wr, werr, errClass(werr), lr, lerr, errClass(lerr))
		}
	}
	// Per-sub classification of a batch, through the typed call both share.
	stores := []BatchStore{{Series: "k", Points: pts}, {Series: ""}}
	werrs, werr := client.StoreBatchCtx(ctx, addrs["moved"], stores)
	lerrs, lerr := local.StoreBatchCtx(ctx, addrs["moved"], stores)
	if werr != nil || lerr != nil || len(werrs) != 2 || len(lerrs) != 2 {
		t.Fatalf("moved batch: client %v %v, local %v %v", werrs, werr, lerrs, lerr)
	}
	for i := range stores {
		if fmt.Sprint(werrs[i]) != fmt.Sprint(lerrs[i]) || errClass(werrs[i]) != errClass(lerrs[i]) {
			t.Errorf("moved batch sub %d: client %v, local %v", i, werrs[i], lerrs[i])
		}
	}
	if _, ok := IsMoved(werrs[0]); !ok || !resilience.IsTerminal(werrs[1]) {
		t.Errorf("moved batch classified %v / %v, want moved then terminal", werrs[0], werrs[1])
	}

	// The typed memory calls: a transcript of results and error classes from
	// the client, the local transport and the local backend, each over a
	// fresh Memory.
	type memoryCalls struct {
		storeBatch func([]BatchStore) ([]error, error)
		fetch      func(key string, from, to float64, max int) ([][2]float64, error)
		fetchBatch func([]BatchFetch) ([]FetchResult, error)
		series     func() ([]string, error)
	}
	over := func(tr Transport, addr string) memoryCalls {
		return memoryCalls{
			func(s []BatchStore) ([]error, error) { return tr.StoreBatchCtx(ctx, addr, s) },
			func(k string, from, to float64, max int) ([][2]float64, error) {
				return tr.FetchCtx(ctx, addr, k, from, to, max)
			},
			func(f []BatchFetch) ([]FetchResult, error) { return tr.FetchBatchCtx(ctx, addr, f) },
			func() ([]string, error) { return tr.SeriesCtx(ctx, addr) },
		}
	}
	transcript := func(m memoryCalls) []string {
		var out []string
		// Only the per-sub errors are compared: over the group a rejected
		// sub also fails the batch as a missed quorum, by design.
		errs, _ := m.storeBatch([]BatchStore{{Series: "k", Points: pts}, {Series: "", Points: pts}, {Series: "b", Points: pts}})
		for _, e := range errs {
			out = append(out, "store "+errClass(e))
		}
		errs, _ = m.storeBatch([]BatchStore{{Series: "k", Points: [][2]float64{{2, 0.9}, {3, 0.7}}}})
		out = append(out, fmt.Sprint("dedup store ", len(errs), " ", errClass(errs[0])))
		for _, f := range []BatchFetch{{Series: "k"}, {Series: "k", From: 5, To: 2}, {Series: "k", From: 2, To: 5, Max: 1}, {Series: "missing"}} {
			p, err := m.fetch(f.Series, f.From, f.To, f.Max)
			out = append(out, fmt.Sprint("fetch ", p, " ", errClass(err)))
		}
		res, err := m.fetchBatch([]BatchFetch{{Series: "k"}, {Series: "missing"}, {Series: "b", Max: 1}})
		for _, r := range res {
			out = append(out, fmt.Sprint("batch fetch ", r.Points, " ", errClass(r.Err)))
		}
		out = append(out, fmt.Sprint("batch fetch envelope ", err))
		names, err := m.series()
		return append(out, fmt.Sprint("series ", names, " ", err))
	}
	_, memAddr := startServerLimits(t, NewMemory(100), ServerLimits{})
	viaClient := transcript(over(client, memAddr))
	lt := NewLocalTransport()
	lt.Register("m", NewMemory(100))
	viaLocal := transcript(over(lt, "m"))
	backend := NewLocalBackend(NewMemory(100))
	viaBackend := transcript(memoryCalls{
		func(s []BatchStore) ([]error, error) { return backend.StoreBatch(ctx, s) },
		func(k string, from, to float64, max int) ([][2]float64, error) {
			return backend.Fetch(ctx, k, from, to, max)
		},
		func(f []BatchFetch) ([]FetchResult, error) { return backend.FetchBatch(ctx, f) },
		func() ([]string, error) { return backend.Series(ctx) },
	})
	if !reflect.DeepEqual(viaClient, viaLocal) || !reflect.DeepEqual(viaClient, viaBackend) {
		t.Fatalf("typed memory calls disagree:\n client %q\n  local %q\nbackend %q", viaClient, viaLocal, viaBackend)
	}
}

// TestReplicaQuorumConvergesUnderChaos: a replica group writes to 2 replicas
// at quorum 2, one of them behind a chaos proxy that truncates two of its
// connections mid-exchange (applied but unacknowledged). Retries plus
// server-side idempotent dedup must converge both replicas to exactly one
// copy of every point.
func TestReplicaQuorumConvergesUnderChaos(t *testing.T) {
	// Faults are drawn per connection and every attempt dials afresh (a
	// failed attempt's connection is discarded, and the client is closed
	// between rounds): round 0's first attempt and round 2's are truncated,
	// their retries pass.
	chaosMem, _, chaosAddr := chaosFront(t, chaos.NewScript(
		chaos.Action{Fault: chaos.Truncate},
		chaos.Action{Fault: chaos.Pass},
		chaos.Action{Fault: chaos.Pass},
		chaos.Action{Fault: chaos.Truncate},
	))
	mems, _, addrs := startReplicaSet(t, 1)
	c := NewClientOptions(ClientOptions{
		Timeout: time.Second,
		Retry:   resilience.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond},
	})
	g := NewReplicaGroup(c, []string{chaosAddr, addrs[0]}, 2)
	defer g.Close()

	const rounds = 6
	for i := 0; i < rounds; i++ {
		stores := []BatchStore{
			{Series: "chaos/a", Points: [][2]float64{{float64(i), 0.5}}},
			{Series: "chaos/b", Points: [][2]float64{{float64(i), 0.9}}},
		}
		if _, err := g.StoreBatch(context.Background(), stores); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		c.Close()
	}
	for _, series := range []string{"chaos/a", "chaos/b"} {
		for ri, m := range []*Memory{chaosMem, mems[0]} {
			if n := m.Len(series); n != rounds {
				t.Errorf("replica %d holds %d points of %s, want %d (duplicate or lost)", ri, n, series, rounds)
			}
		}
	}
}
