package nwsnet

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"nwscpu/internal/nwsnet/cluster"
)

// decodeRequestPayload decodes one v2 request payload with no connection
// state, returning the zero request on error.
func decodeRequestPayload(b []byte) (uint64, Request, error) {
	var req Request
	id, err := decodeRequest(b, nil, &req)
	if err != nil {
		return 0, Request{}, err
	}
	return id, req, nil
}

// mustHex decodes a spaced hex dump ("01 05 ...") into bytes.
func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(strings.Join(strings.Fields(s), ""), "\n", ""))
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// Golden payloads: the worked examples of docs/PROTOCOL.md, byte for byte.
// If an encoder change breaks these, the spec must be updated in the same
// commit (TestProtocolDocHexExamples checks the doc side).
const (
	goldenStoreReqHex    = "01 05 05 61 2f 63 70 75 02 c0 b2 01 bf c0 03 80 84 80 04 00"
	goldenFetchReqHex    = "02 06 05 61 2f 63 70 75 00 00 02"
	goldenStoreRespHex   = "01 01"
	goldenFetchRespHex   = "02 09 02 c0 b2 01 bf c0 03 80 84 80 04 00"
	goldenDigestReqHex   = "03 10 05 61 2f 63 70 75"
	goldenDigestRespHex  = "03 81 04 01 05 61 2f 63 70 75 02 c0 b6 81 04 e3 9b ff f0 f9 d9 86 d6 ee 01"
	goldenBackfillReqHex = "04 11 05 61 2f 63 70 75 02 c0 b2 01 bf c0 03 80 84 80 04 00"
	goldenNoisyRespHex   = "05 09 02 c0 b2 01 bf c0 03 80 84 80 04 80 94 a4 a0 dd 92 86 95 99 01"
)

var (
	goldenStoreReq    = Request{Op: OpStore, Series: "a/cpu", Points: [][2]float64{{100, 0.5}, {110, 0.5}}}
	goldenFetchReq    = Request{Op: OpFetch, Series: "a/cpu", Max: 2}
	goldenStoreResp   = Response{OK: true}
	goldenFetchResp   = Response{OK: true, Points: [][2]float64{{100, 0.5}, {110, 0.5}}}
	goldenDigestReq   = Request{Op: OpDigest, Series: "a/cpu"}
	goldenBackfillReq = Request{Op: OpBackfill, Series: "a/cpu", Points: goldenStoreReq.Points}
	// A noisy reading: 0.8137 after 0.5 XORs to a full 10-byte uvarint.
	goldenNoisyResp = Response{OK: true, Points: [][2]float64{{100, 0.5}, {110, 0.8137}}}

	// The digest response is computed by the live digest algorithm over the
	// golden store's points, so a checksum change breaks the golden hex (and
	// with it the spec's worked example) rather than drifting silently.
	goldenDigestResp = func() Response {
		m := NewMemory(16)
		m.Handle(goldenStoreReq)
		return Response{OK: true, Digests: m.Digests(goldenStoreReq.Series)}
	}()
)

func TestBinaryGoldenEncodings(t *testing.T) {
	cases := []struct {
		name string
		hex  string
		enc  func() ([]byte, error)
	}{
		{"store request", goldenStoreReqHex, func() ([]byte, error) { return encodeRequestPayload(nil, 1, &goldenStoreReq) }},
		{"fetch request", goldenFetchReqHex, func() ([]byte, error) { return encodeRequestPayload(nil, 2, &goldenFetchReq) }},
		{"store response", goldenStoreRespHex, func() ([]byte, error) { return encodeResponsePayload(nil, 1, &goldenStoreResp) }},
		{"fetch response", goldenFetchRespHex, func() ([]byte, error) { return encodeResponsePayload(nil, 2, &goldenFetchResp) }},
		{"digest request", goldenDigestReqHex, func() ([]byte, error) { return encodeRequestPayload(nil, 3, &goldenDigestReq) }},
		{"digest response", goldenDigestRespHex, func() ([]byte, error) { return encodeResponsePayload(nil, 3, &goldenDigestResp) }},
		{"backfill request", goldenBackfillReqHex, func() ([]byte, error) { return encodeRequestPayload(nil, 4, &goldenBackfillReq) }},
		{"noisy fetch response", goldenNoisyRespHex, func() ([]byte, error) { return encodeResponsePayload(nil, 5, &goldenNoisyResp) }},
	}
	for _, c := range cases {
		got, err := c.enc()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := mustHex(t, c.hex); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got % x\nwant % x", c.name, got, want)
		}
	}
	if _, resp, err := decodeResponsePayload(mustHex(t, goldenNoisyRespHex)); err != nil || !samePoints(resp.Points, goldenNoisyResp.Points) {
		t.Errorf("noisy fetch response decodes to %v, %v", resp.Points, err)
	}
}

// TestBinaryRequestRoundTrip round-trips every op through encode/decode.
func TestBinaryRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpPing},
		{Op: OpRegister, Reg: Registration{Name: "h/cpu", Kind: KindSensor, Addr: "a:1", Addrs: []string{"a:1", "b:2"}}},
		{Op: OpLookup, Reg: Registration{Name: "h/cpu"}},
		{Op: OpList, Reg: Registration{Kind: KindMemory}},
		{Op: OpList},
		{Op: OpStore, Series: "k", Points: [][2]float64{{1, 0.5}, {2, -0.5}, {2, -0.5}, {math.Inf(1), 1e-300}}},
		{Op: OpStore, Series: ""},
		{Op: OpFetch, Series: "k", From: -3.5, To: 1e308, Max: 10},
		{Op: OpSeries},
		{Op: OpForecast, Series: "k"},
		{Op: OpBatch, Batch: []Request{
			{Op: OpStore, Series: "a", Points: [][2]float64{{1, 1}}},
			{Op: OpFetch, Series: "a", From: 1, To: 2, Max: 3},
			{Op: OpPing},
		}},
		{Op: OpBatch},
		{Op: OpJoin, Member: &cluster.Member{ID: "mem-a", Kind: "memory", Addr: "a:1",
			Addrs: []string{"a:1", "a:2"}, State: cluster.StateJoining}},
		{Op: OpJoin, Member: &cluster.Member{ID: "mem-a", Kind: "memory", Addr: "a:1", State: cluster.StateActive},
			Epoch: 7},
		{Op: OpLease, Member: &cluster.Member{ID: "mem-a"}, Epoch: 12},
		{Op: OpView},
		{Op: OpView, Epoch: 1 << 40},
		{Op: OpDigest},
		{Op: OpDigest, Series: "k"},
		{Op: OpBackfill, Series: "k", Points: [][2]float64{{1, 0.5}, {2, 0.6}}},
		{Op: OpBackfill, Series: "k"},
	}
	for i, req := range reqs {
		b, err := encodeRequestPayload(nil, uint64(i)+100, &req)
		if err != nil {
			t.Fatalf("req %d: encode: %v", i, err)
		}
		id, got, err := decodeRequestPayload(b)
		if err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		if id != uint64(i)+100 {
			t.Fatalf("req %d: id %d, want %d", i, id, uint64(i)+100)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("req %d: round trip\n got %+v\nwant %+v", i, got, req)
		}
	}
}

// TestBinaryResponseRoundTrip round-trips every response shape.
func TestBinaryResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{OK: true},
		{Error: "no such series"},
		{Error: "busy busy", Code: CodeBusy},
		{OK: true, Points: [][2]float64{{1, 0.5}, {1, 0.5}, {-2, math.NaN()}}},
		{OK: true, Names: []string{"a", "", "c"}},
		{OK: true, Entries: []Registration{
			{Name: "h", Kind: KindSensor, Addr: "a:1"},
			{Name: "m", Kind: KindMemory, Addr: "a:1", Addrs: []string{"a:1", "b:2"}},
		}},
		{OK: true, Forecast: &ForecastResult{Value: 0.42, Method: "sw_avg", MAE: 0.01, N: 64}},
		{OK: true, Forecast: &ForecastResult{}},
		{OK: true, Batch: []Response{{Error: "x", Code: CodeBusy}, {OK: true, Points: [][2]float64{{1, 2}}}}},
		{OK: true, View: &cluster.View{Epoch: 3,
			Config: cluster.Config{Replication: 2, VNodes: 64, Seed: 9},
			Members: []cluster.Member{
				{ID: "mem-a", Kind: "memory", Addr: "a:1", State: cluster.StateActive},
				{ID: "mem-b", Kind: "memory", Addr: "b:1", Addrs: []string{"b:1", "b:2"}, State: cluster.StateJoining},
			}}},
		{OK: true, View: &cluster.View{}},
		{Error: `store "k": not an owner under epoch 4`, Code: CodeMoved,
			View: &cluster.View{Epoch: 4, Members: []cluster.Member{{ID: "m", Kind: "memory", Addr: "a:1", State: cluster.StateActive}}}},
		{OK: true, Digests: []SeriesDigest{{Series: "k", Count: 2, Frontier: 2, Sum: 123456789}}},
		{OK: true, Digests: []SeriesDigest{
			{Series: "a"},
			{Series: "b", Count: 1<<64 - 1, Frontier: -1e308, Sum: 1<<64 - 1},
		}},
	}
	for i, resp := range resps {
		b, err := encodeResponsePayload(nil, uint64(i)+1, &resp)
		if err != nil {
			t.Fatalf("resp %d: encode: %v", i, err)
		}
		id, got, err := decodeResponsePayload(b)
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if id != uint64(i)+1 {
			t.Fatalf("resp %d: id %d", i, id)
		}
		// NaN breaks DeepEqual; compare via a second encoding instead.
		b2, err := encodeResponsePayload(nil, uint64(i)+1, &got)
		if err != nil || !bytes.Equal(b, b2) {
			t.Errorf("resp %d: round trip not byte-stable (%v)\n first % x\nsecond % x", i, err, b, b2)
		}
	}
}

// TestBinaryPointPackingIsCompact checks the XOR-chain actually compresses:
// a flat series (the common case for availability near 1.0) must cost a few
// bytes per point, not sixteen.
func TestBinaryPointPackingIsCompact(t *testing.T) {
	pts := make([][2]float64, 100)
	for i := range pts {
		pts[i] = [2]float64{float64(10 * i), 0.97}
	}
	b, err := encodeRequestPayload(nil, 1, &Request{Op: OpStore, Series: "h/cpu/nws_hybrid", Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	// 100 points raw = 1600 bytes; the value stream repeats (1 byte after
	// the first) and timestamps differ in few bits. Allow generous slack.
	if len(b) > 800 {
		t.Errorf("flat series of 100 points encoded to %d bytes; want well under 800", len(b))
	}
}

// TestBinaryDecodeRejectsMalformed checks the decoder fails cleanly (no
// panic, error returned) on the malformed-frame classes the spec calls out.
func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":                     {},
		"id only":                   {0x01},
		"unknown opcode":            {0x01, 0xAB},
		"truncated varint":          {0x01, 0x05, 0xFF},
		"store count past payload":  mustHex(t, "01 05 01 6b ff ff ff 7f"),
		"trailing garbage":          append(mustHex(t, goldenStoreReqHex), 0xEE),
		"batch nesting past cap":    mustHex(t, "01 08 01 08 01 08 01 08 01 08 01 01"),
		"fetch missing max":         mustHex(t, "02 06 05 61 2f 63 70 75 00 00"),
		"register truncated addrs":  mustHex(t, "01 02 01 68 00 00 05"),
		"string length past buffer": mustHex(t, "01 03 7f 61"),
	}
	for name, payload := range cases {
		if _, _, err := decodeRequestPayload(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	respCases := map[string][]byte{
		"empty":                  {},
		"error flag no string":   {0x01, 0x02},
		"error flag empty":       {0x01, 0x02, 0x00},
		"code flag empty":        {0x01, 0x04, 0x00},
		"points flag zero count": {0x01, 0x08, 0x00},
		"names flag zero count":  {0x01, 0x10, 0x00},
		// 0x80 0x01 is uvarint 128 = the batch flag bit; zero sub-count after
		// it is the malformed case (a bare 0x80 is now a truncated uvarint).
		"batch flag zero count": {0x01, 0x80, 0x01, 0x00},
		"batch flag truncated":  {0x01, 0x80},
		// 0x80 0x08 is uvarint 1024 = 1 << 10, the lowest unassigned flag bit.
		"unknown flag bit":         {0x01, 0x80, 0x08},
		"view flag no body":        {0x01, 0x80, 0x02},
		"digests flag zero count":  {0x01, 0x80, 0x04, 0x00},
		"digests flag no body":     {0x01, 0x80, 0x04},
		"digests count past frame": {0x01, 0x80, 0x04, 0x7f, 0x01, 0x6b},
		"trailing garbage":         append(mustHex(t, goldenStoreRespHex), 0x00),
	}
	for name, payload := range respCases {
		if _, _, err := decodeResponsePayload(payload); err == nil {
			t.Errorf("response %s: decoded without error", name)
		}
	}
}

// TestFrameRoundTrip exercises the length-prefixed framing, including the
// oversize rejection both ways.
func TestFrameRoundTrip(t *testing.T) {
	var netBuf bytes.Buffer
	w := bufio.NewWriter(&netBuf)
	payloads := [][]byte{{0x01}, bytes.Repeat([]byte{0xAB}, 100000), {0x02, 0x03}}
	for _, p := range payloads {
		if err := writeFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&netBuf)
	var buf []byte
	for i, want := range payloads {
		got, n, err := readFrame(r, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(want)+4 {
			t.Fatalf("frame %d: consumed %d bytes, want %d", i, n, len(want)+4)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if err := writeFrame(bufio.NewWriter(&netBuf), make([]byte, maxFrameBytes+1)); err == nil {
		t.Error("oversize frame written without error")
	}
	// A forged oversize header must be rejected before allocation.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)), &buf); err == nil {
		t.Error("oversize header accepted")
	}
	// A zero-length frame is invalid.
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 0})), &buf); err == nil {
		t.Error("zero-length frame accepted")
	}
}

// TestReadFrameReleasesLargeBuffers: the server reader, the MuxConn reader
// and pooled Client connections all read through one buffer per connection.
// One large frame must not leave that buffer pinned at its size for the rest
// of the connection's life.
func TestReadFrameReleasesLargeBuffers(t *testing.T) {
	var netBuf bytes.Buffer
	w := bufio.NewWriter(&netBuf)
	payloads := [][]byte{bytes.Repeat([]byte{0xAB}, 4<<20), {0x01}, bytes.Repeat([]byte{0xCD}, 1000), {0x02, 0x03}}
	for _, p := range payloads {
		if err := writeFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&netBuf)
	var buf []byte
	for i, want := range payloads {
		got, _, err := readFrame(r, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if cap(buf) > frameBufKeep {
		t.Errorf("after a 4 MiB frame and three small ones the connection still holds a %d-byte frame buffer; want at most 64 KiB", cap(buf))
	}
}

// TestOpcodeTablesAgree holds the [256]Op decode table to wireOps, the
// registry the encoder and docs-check use: every registered opcode decodes
// to its op, and every other byte is an unknown opcode.
func TestOpcodeTablesAgree(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := Op("")
		for op, code := range wireOps {
			if code == byte(c) {
				want = op
			}
		}
		if binOpToOp[c] != want {
			t.Errorf("opcode 0x%02x decodes to %q, wireOps says %q", c, binOpToOp[c], want)
		}
		if want != "" {
			continue
		}
		_, _, err := decodeRequestPayload([]byte{0x01, byte(c)})
		if err == nil || !strings.Contains(err.Error(), "unknown binary opcode") {
			t.Errorf("unassigned opcode 0x%02x decodes with error %v, want an unknown binary opcode", c, err)
		}
	}
}

// TestConnDecoderSubsDoNotAlias: a connection decoder packs the points of
// a frame's subs back to back into one block. Each sub's slice must end at
// its own last point, so appending to one cannot overwrite its sibling, and
// the block must never be reused under a request already handed out.
func TestConnDecoderSubsDoNotAlias(t *testing.T) {
	frame := func(base float64) []byte {
		req := Request{Op: OpBatch, Batch: []Request{
			{Op: OpStore, Series: "a", Points: [][2]float64{{base + 1, 1}}},
			{Op: OpStore, Series: "b", Points: [][2]float64{{base + 2, 2}, {base + 3, 3}}},
		}}
		b, err := encodeRequestPayload(nil, 1, &req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var dec connDecoder
	var first Request
	if _, err := decodeRequest(frame(0), &dec, &first); err != nil {
		t.Fatal(err)
	}
	a, b := first.Batch[0].Points, first.Batch[1].Points
	if uintptr(unsafe.Pointer(&b[0])) != uintptr(unsafe.Pointer(&a[0]))+unsafe.Sizeof(a[0]) {
		t.Fatal("the subs' points were not decoded back to back into one block")
	}
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("sub slices carry spare capacity: cap %d/%d for len %d/%d", cap(a), cap(b), len(a), len(b))
	}
	_ = append(first.Batch[0].Points, [2]float64{99, 99})
	var second Request
	if _, err := decodeRequest(frame(100), &dec, &second); err != nil {
		t.Fatal(err)
	}
	want := [][2]float64{{2, 2}, {3, 3}}
	if !reflect.DeepEqual(first.Batch[1].Points, want) || !reflect.DeepEqual(first.Batch[0].Points, [][2]float64{{1, 1}}) {
		t.Fatalf("first frame's points changed under later decodes and appends: %v %v", first.Batch[0].Points, first.Batch[1].Points)
	}
}

// TestWireOpsCoverAllOps pins the opcode registry to the protocol Op set:
// adding an Op without a binary opcode (or vice versa) must not compile
// silently into a codec that cannot carry it.
func TestWireOpsCoverAllOps(t *testing.T) {
	all := []Op{OpPing, OpRegister, OpLookup, OpList, OpStore, OpFetch, OpSeries, OpBatch, OpForecast,
		OpJoin, OpLease, OpView, OpSubscribe, OpUnsubscribe, OpHello, OpDigest, OpBackfill}
	if len(wireOps) != len(all) {
		t.Errorf("wireOps has %d entries, protocol has %d ops", len(wireOps), len(all))
	}
	seen := map[byte]Op{}
	for _, op := range all {
		code, ok := wireOps[op]
		if !ok {
			t.Errorf("op %q has no binary opcode", op)
			continue
		}
		if prev, dup := seen[code]; dup {
			t.Errorf("opcode 0x%02x assigned to both %q and %q", code, prev, op)
		}
		seen[code] = op
	}
}
