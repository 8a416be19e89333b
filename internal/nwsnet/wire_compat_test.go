package nwsnet

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"nwscpu/internal/resilience"
	"nwscpu/internal/resilience/chaos"
)

// v1 is a wire protocol v1 peer in full: one JSON line out, one back, in
// lockstep — so a fresh reader per exchange can never swallow a later answer.
// The tree's clients speak v2 only; this is what holds the server's v1 edge
// to its contract.
func v1(nc net.Conn, req Request) (resp Response, err error) {
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err = writeMsg(bufio.NewWriter(nc), req); err == nil {
		err = readMsg(bufio.NewReader(nc), &resp)
	}
	return resp, err
}

// dialV1 opens a v1 connection that lives as long as the test and returns
// the function that asks over it, failing the test on a transport error.
func dialV1(t *testing.T, addr string) func(Request) Response {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return func(req Request) Response {
		t.Helper()
		resp, err := v1(nc, req)
		if err != nil {
			t.Fatalf("v1 %s: %v", req.Op, err)
		}
		return resp
	}
}

// TestV1ClientAgainstV2DefaultServer is the downgrade regression: a JSON
// (v1) peer — and below it, a raw netcat-style connection — against
// today's binary-default server must work exactly as before the v2 codec
// existed. The server may never assume the preamble.
func TestV1ClientAgainstV2DefaultServer(t *testing.T) {
	mem := NewMemory(100)
	srv, addr := startServerLimits(t, mem, ServerLimits{})
	defer srv.Close()

	ask := dialV1(t, addr)
	if resp := ask(Request{Op: OpPing}); !resp.OK {
		t.Fatalf("v1 ping: %+v", resp)
	}
	pts := [][2]float64{{1, 0.5}, {2, 0.6}}
	if resp := ask(Request{Op: OpStore, Series: "k", Points: pts}); !resp.OK {
		t.Fatalf("v1 store: %+v", resp)
	}
	if resp := ask(Request{Op: OpFetch, Series: "k"}); !reflect.DeepEqual(resp.Points, pts) {
		t.Fatalf("v1 fetch returned %+v, want %v", resp, pts)
	}

	// Rawest possible v1 peer: a hand-written JSON line, no client library.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Write([]byte(`{"op":"fetch","series":"k"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := readMsg(bufio.NewReader(nc), &resp); err != nil {
		t.Fatalf("raw JSON line: %v", err)
	}
	if !resp.OK || len(resp.Points) != 2 {
		t.Fatalf("raw JSON line answered %+v", resp)
	}
}

// TestCodecsAnswerIdentically sweeps every op through both codecs against
// identically-prepared servers and requires identical answers — the
// bit-for-bit semantic-preservation contract of the v2 codec.
func TestCodecsAnswerIdentically(t *testing.T) {
	reqs := []Request{
		{Op: OpPing},
		{Op: OpStore, Series: "k", Points: [][2]float64{{1, 0.5}, {2, 0.6}}},
		{Op: OpStore, Series: "k", Points: [][2]float64{{2, 0.9}, {3, 0.7}}}, // dedup overlap
		{Op: OpStore, Series: ""}, // rejection
		{Op: OpFetch, Series: "k"},
		{Op: OpFetch, Series: "k", From: 5, To: 2},
		{Op: OpFetch, Series: "k", From: 2, To: 5, Max: 1},
		{Op: OpFetch, Series: "missing"},
		{Op: OpSeries},
		{Op: OpBatch, Batch: []Request{
			{Op: OpStore, Series: "b", Points: [][2]float64{{1, 1}}},
			{Op: OpFetch, Series: "b"},
			{Op: OpStore},
		}},
		{Op: OpBatch, Batch: []Request{{Op: OpBatch, Batch: []Request{{Op: OpPing}}}}},
	}
	// exchange returns answers unclassified, so rejections compare too.
	answers := func(codec string, exchange func(addr string, req Request) (Response, error)) []Response {
		mem := NewMemory(100)
		srv, addr := startServerLimits(t, mem, ServerLimits{})
		defer srv.Close()
		out := make([]Response, len(reqs))
		for i, req := range reqs {
			resp, err := exchange(addr, req)
			if err != nil {
				t.Fatalf("%s op %s: %v", codec, req.Op, err)
			}
			out[i] = resp
		}
		return out
	}
	var ask func(Request) Response
	j := answers(codecJSON, func(addr string, req Request) (Response, error) {
		if ask == nil {
			ask = dialV1(t, addr)
		}
		return ask(req), nil
	})
	c := NewClient(2 * time.Second)
	defer c.Close()
	b := answers(codecBinary, func(addr string, req Request) (Response, error) {
		return c.exchange(context.Background(), addr, req)
	})
	for i := range reqs {
		// JSON decodes absent points as nil, binary too; both must agree
		// structurally on every field.
		if !reflect.DeepEqual(j[i], b[i]) {
			t.Errorf("op %s (case %d):\n json %+v\nbinary %+v", reqs[i].Op, i, j[i], b[i])
		}
	}
}

// TestMixedCodecReplicaQuorumConvergesUnderChaos is the mixed-version
// deployment scenario: one writer still on v1 (JSON lines, retrying by hand)
// and one on v2 (the replica group) both write to the same 2 replicas at
// quorum 2, with one replica behind a chaos proxy that truncates each
// writer's first connection mid-exchange (applied but unacknowledged).
// Retries plus server-side idempotent dedup must converge both replicas to
// exactly one copy of every point, regardless of codec.
func TestMixedCodecReplicaQuorumConvergesUnderChaos(t *testing.T) {
	chaosMem, _, chaosAddr := chaosFront(t, chaos.NewScript(
		chaos.Action{Fault: chaos.Truncate}, // json writer's first connection
		chaos.Action{Fault: chaos.Truncate}, // binary writer's first connection
	))
	mems, _, addrs := startReplicaSet(t, 1)
	group := []string{chaosAddr, addrs[0]}

	// Faults are drawn per connection: a fresh connection per attempt keeps
	// the schedule aligned (truncate once, then pass).
	const attempts = 3
	bw := NewReplicaGroup(NewClientOptions(ClientOptions{
		Timeout:        time.Second,
		Retry:          resilience.Policy{MaxAttempts: attempts, BaseDelay: 5 * time.Millisecond},
		MaxIdlePerAddr: -1,
	}), group, 2)
	defer bw.Close()
	// The v1 writer: every replica must acknowledge the batch within the
	// same number of attempts.
	jw := func(stores []BatchStore) error {
		for _, addr := range group {
			var err error
			for try := 0; try < attempts; try++ {
				var nc net.Conn
				if nc, err = net.DialTimeout("tcp", addr, time.Second); err != nil {
					continue
				}
				var resp Response
				resp, err = v1(nc, storeEnvelope(stores))
				nc.Close()
				if err == nil {
					_, err = storeResults(addr, resp, len(stores))
				}
				if err == nil {
					break
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Interleave quorum writes from both writers on both series.
	const rounds = 6
	for i := 0; i < rounds; i++ {
		stores := []BatchStore{
			{Series: "mixed/a", Points: [][2]float64{{float64(i), 0.5}}},
			{Series: "mixed/b", Points: [][2]float64{{float64(i), 0.9}}},
		}
		var err error
		if i%2 == 0 {
			err = jw(stores)
		} else {
			_, err = bw.StoreBatch(context.Background(), stores)
		}
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}

	for _, series := range []string{"mixed/a", "mixed/b"} {
		for ri, m := range []*Memory{chaosMem, mems[0]} {
			if n := m.Len(series); n != rounds {
				t.Errorf("replica %d holds %d points of %s, want %d (duplicate or lost under mixed codecs)",
					ri, n, series, rounds)
			}
		}
	}
	if mems[0].Len("mixed/a") == 0 {
		t.Fatal("sanity: no writes landed at all")
	}
}

// TestServerCountsNegotiatedCodecs pins the nws_wire_connections_total
// accounting: one JSON and one binary connection, one count each.
func TestServerCountsNegotiatedCodecs(t *testing.T) {
	j0 := mWireConns.With(codecJSON).Value()
	b0 := mWireConns.With(codecBinary).Value()
	mem := NewMemory(10)
	srv, addr := startServerLimits(t, mem, ServerLimits{})
	defer srv.Close()

	if resp := dialV1(t, addr)(Request{Op: OpPing}); !resp.OK {
		t.Fatalf("v1 ping: %+v", resp)
	}
	bc := NewClient(time.Second)
	defer bc.Close()
	if err := bc.Ping(addr); err != nil {
		t.Fatal(err)
	}

	if got := mWireConns.With(codecJSON).Value() - j0; got != 1 {
		t.Errorf("json connections counted %d, want 1", got)
	}
	if got := mWireConns.With(codecBinary).Value() - b0; got != 1 {
		t.Errorf("binary connections counted %d, want 1", got)
	}
}

// TestLegacyPreambleVersionFallsBackToJSON covers the version-negotiation
// downgrade the spec promises: a client that sends the preamble with a
// version below 2 gets the JSON accept byte and a working JSON-line
// conversation on the same connection.
func TestLegacyPreambleVersionFallsBackToJSON(t *testing.T) {
	mem := NewMemory(10)
	srv, addr := startServerLimits(t, mem, ServerLimits{})
	defer srv.Close()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	pre := wirePreamble
	pre[4] = 1 // ask for wire version 1
	if _, err := nc.Write(pre[:]); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	accept, err := br.ReadByte()
	if err != nil {
		t.Fatal(err)
	}
	if accept != wireVersionJSON {
		t.Fatalf("accept byte %d, want %d (JSON fallback)", accept, wireVersionJSON)
	}
	if _, err := fmt.Fprintf(nc, `{"op":"ping"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := readMsg(br, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("ping after downgrade answered %+v", resp)
	}
}
