package nwsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
)

// FuzzDecodeRequest feeds arbitrary wire lines through the same decode path
// the server uses and executes whatever decodes against a live Memory. The
// handler must never panic, whatever the envelope contains — the seed code
// failed this for a plain fetch with From > To (a remotely triggerable slice
// bounds panic), which is exactly the class of bug this guards. The batch
// envelope is in the corpus so sub-request execution (including nesting and
// mixed invalid subs) is fuzzed too.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"op":"ping"}`,
		`{"op":"store","series":"k","points":[[1,0.5],[2,0.6]]}`,
		`{"op":"fetch","series":"k"}`,
		`{"op":"fetch","series":"k","from":5,"to":2}`, // inverted range: panicked in the seed code
		`{"op":"fetch","series":"k","from":2,"to":5,"max":1}`,
		`{"op":"series"}`,
		`{"op":"batch","batch":[{"op":"store","series":"a","points":[[1,1]]},{"op":"fetch","series":"a"}]}`,
		`{"op":"batch","batch":[{"op":"batch","batch":[{"op":"ping"}]}]}`,
		`{"op":"batch","batch":[]}`,
		`{"op":"batch","batch":[{"op":"store"},{"op":"fetch","series":"k","from":9,"to":-3,"max":-1}]}`,
		`{"op":"nonsense"}`,
		`{"op":"store","series":"k","points":[[2,1],[1,1],[2,2]]}`,
		`not json at all`,
		`{"op":"fetch","series":"k","from":1e308,"to":-1e308}`,
		`{"op":"join","member":{"id":"m1","kind":"memory","addr":"a:1","state":"joining"}}`,
		`{"op":"join","member":{"id":"m1","kind":"memory","addrs":["a:1","b:2"],"state":"active"},"epoch":7}`,
		`{"op":"lease","member":{"id":"m1"},"epoch":12}`,
		`{"op":"view"}`,
		`{"op":"view","epoch":3}`,
		`{"op":"subscribe","series":"k"}`,
		`{"op":"unsubscribe","series":"k"}`,
		`{"op":"hello","tenant":"team-a"}`,
		`{"op":"digest"}`,
		`{"op":"digest","series":"k"}`,
		`{"op":"backfill","series":"k","points":[[1,0.5],[2,0.6]]}`,
		`{"op":"backfill","series":"k","points":[[2,1],[1,1],[2,2]]}`,
		`{"op":"backfill","series":"k"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s + "\n"))
	}
	m := NewMemory(16)
	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if err := readMsg(bufio.NewReader(bytes.NewReader(line)), &req); err != nil {
			return // undecodable input never reaches the handler
		}
		resp := m.Handle(req)
		// Whatever came back must survive the encode half of the wire.
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("unmarshalable response %+v: %v", resp, err)
		}
		// Cross-codec: anything the JSON codec accepts must round-trip
		// losslessly through the binary codec (encode → decode → re-encode
		// must reproduce the first encoding byte for byte). Requests only
		// the JSON codec can express — unknown ops, absurd nesting — are
		// legitimately unencodable and skipped.
		b1, err := encodeRequestPayload(nil, 7, req)
		if err != nil {
			return
		}
		id, req2, err := decodeRequestPayload(b1)
		if err != nil {
			t.Fatalf("binary decode of own encoding failed: %v\npayload % x", err, b1)
		}
		if id != 7 {
			t.Fatalf("request ID %d survived as %d", 7, id)
		}
		b2, err := encodeRequestPayload(nil, 7, req2)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("binary round trip not stable:\n first % x\nsecond % x", b1, b2)
		}
	})
}

// FuzzDecodeResponse feeds arbitrary wire lines through the client-side
// decode and error-classification path — the half of the protocol a
// malicious or confused *server* controls. Whatever comes back, the client
// must neither panic nor misclassify: a response carrying the busy code is
// always a retryable, busy-recognizable error (never terminal, so retry
// policies back off instead of giving up), an ordinary rejection is always
// terminal, and a clean response classifies as no error at all.
func FuzzDecodeResponse(f *testing.F) {
	seeds := []string{
		`{"ok":true}`,
		`{"ok":false,"error":"no such series"}`,
		`{"ok":false,"error":"server at connection capacity; retry","code":"busy"}`,
		`{"ok":false,"error":"","code":"busy"}`,
		`{"ok":true,"error":"","code":"nonsense"}`,
		`{"ok":true,"points":[[1,0.5],[2,0.6]]}`,
		`{"ok":true,"batch":[{"ok":false,"error":"x","code":"busy"},{"ok":true}]}`,
		`{"ok":true,"forecast":{"value":0.5,"method":"sw_avg","mae":0.01,"n":64}}`,
		`{"code":"busy"}`,
		`not json at all`,
		`{"ok":true,"points":[[1e308,-1e308]]}`,
		`{"ok":false,"error":"store \"k\": not an owner under epoch 4","code":"moved","view":{"epoch":4,"config":{"replication":2,"vnodes":64},"members":[{"id":"m1","kind":"memory","addr":"a:1","state":"active"}]}}`,
		`{"ok":false,"code":"moved"}`,
		`{"ok":true,"view":{"epoch":9,"members":[{"id":"m1","kind":"memory","addr":"a:1","state":"active"},{"id":"f1","kind":"forecaster","addr":"c:3","state":"joining"}]}}`,
		`{"ok":true,"digests":[{"series":"k","count":2,"frontier":2,"sum":123456789}]}`,
		`{"ok":true,"digests":[{"series":"a","count":0,"frontier":0,"sum":0},{"series":"b","count":18446744073709551615,"frontier":-1e308,"sum":18446744073709551615}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s + "\n"))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var resp Response
		if err := readMsg(bufio.NewReader(bytes.NewReader(line)), &resp); err != nil {
			return // undecodable responses surface as transport errors
		}
		err := respError("fuzz:0", resp)
		switch {
		case resp.Code == CodeBusy:
			if err == nil || !IsBusy(err) {
				t.Fatalf("busy response classified %v, want busy", err)
			}
			if resilience.IsTerminal(err) {
				t.Fatalf("busy response classified terminal: %v", err)
			}
		case resp.Code == CodeMoved:
			// An ownership redirect is terminal for the answering endpoint
			// but must stay typed so routing layers can extract the view.
			if err == nil || !resilience.IsTerminal(err) || IsBusy(err) {
				t.Fatalf("moved response misclassified: %v", err)
			}
			if _, ok := IsMoved(err); !ok {
				t.Fatalf("moved response lost its MovedError type: %v", err)
			}
		case resp.Error != "":
			if err == nil || !resilience.IsTerminal(err) {
				t.Fatalf("protocol rejection classified %v, want terminal", err)
			}
			if IsBusy(err) {
				t.Fatalf("plain rejection classified busy: %v", err)
			}
		default:
			if err != nil {
				t.Fatalf("clean response classified as error: %v", err)
			}
		}
		// Cross-codec: see FuzzDecodeRequest. Deeply nested batches are the
		// only JSON responses the binary codec refuses; skip those.
		b1, eerr := encodeResponsePayload(nil, 9, resp)
		if eerr != nil {
			return
		}
		id, resp2, derr := decodeResponsePayload(b1)
		if derr != nil {
			t.Fatalf("binary decode of own encoding failed: %v\npayload % x", derr, b1)
		}
		if id != 9 {
			t.Fatalf("response ID %d survived as %d", 9, id)
		}
		b2, eerr := encodeResponsePayload(nil, 9, resp2)
		if eerr != nil {
			t.Fatalf("re-encode failed: %v", eerr)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("binary round trip not stable:\n first % x\nsecond % x", b1, b2)
		}
	})
}

// binaryRequestSeeds returns encoded v2 request payloads covering every op,
// for seeding the binary fuzzers with well-formed frames to mutate.
func binaryRequestSeeds() [][]byte {
	reqs := []Request{
		{Op: OpPing},
		{Op: OpRegister, Reg: Registration{Name: "h/cpu", Kind: KindSensor, Addr: "a:1", Addrs: []string{"a:1", "b:2"}}},
		{Op: OpLookup, Reg: Registration{Name: "h/cpu"}},
		{Op: OpList, Reg: Registration{Kind: KindMemory}},
		{Op: OpStore, Series: "k", Points: [][2]float64{{1, 0.5}, {2, 0.5}}},
		{Op: OpStore, Series: "k"},
		{Op: OpFetch, Series: "k", From: 5, To: 2, Max: 1},
		{Op: OpFetch, Series: "k", From: 1e308, To: -1e308},
		{Op: OpSeries},
		{Op: OpForecast, Series: "k"},
		{Op: OpBatch, Batch: []Request{
			{Op: OpStore, Series: "a", Points: [][2]float64{{1, 1}}},
			{Op: OpFetch, Series: "a"},
		}},
		{Op: OpBatch, Batch: []Request{{Op: OpBatch, Batch: []Request{{Op: OpPing}}}}},
		{Op: OpBatch},
		{Op: OpJoin, Member: &cluster.Member{ID: "m1", Kind: "memory", Addr: "a:1", State: cluster.StateJoining}},
		{Op: OpJoin, Member: &cluster.Member{ID: "m1", Kind: "memory", Addrs: []string{"a:1", "b:2"}, State: cluster.StateActive}, Epoch: 7},
		{Op: OpLease, Member: &cluster.Member{ID: "m1"}, Epoch: 12},
		{Op: OpView},
		{Op: OpView, Epoch: 1 << 40},
		{Op: OpSubscribe, Series: "k"},
		{Op: OpUnsubscribe, Series: "k"},
		{Op: OpHello, Tenant: "team-a"},
		{Op: OpHello},
		{Op: OpDigest},
		{Op: OpDigest, Series: "k"},
		{Op: OpBackfill, Series: "k", Points: [][2]float64{{1, 0.5}, {2, 0.6}}},
		{Op: OpBackfill, Series: "k"},
	}
	var out [][]byte
	for _, r := range reqs {
		if b, err := encodeRequestPayload(nil, 1, r); err == nil {
			out = append(out, b)
		}
	}
	return out
}

// requestElems counts the decoded container elements of a request —
// points, addresses, sub-requests — to bound allocation against input size.
func requestElems(req Request) int {
	n := len(req.Points) + len(req.Reg.Addrs)
	if req.Member != nil {
		n += 1 + len(req.Member.Addrs)
	}
	for _, sub := range req.Batch {
		n += 1 + requestElems(sub)
	}
	return n
}

// responseElems is requestElems for responses.
func responseElems(resp Response) int {
	n := len(resp.Points) + len(resp.Names) + len(resp.Entries) + len(resp.Digests)
	for _, e := range resp.Entries {
		n += len(e.Addrs)
	}
	if resp.View != nil {
		n += 1 + len(resp.View.Members)
		for _, m := range resp.View.Members {
			n += len(m.Addrs)
		}
	}
	for _, sub := range resp.Batch {
		n += 1 + responseElems(sub)
	}
	return n
}

// FuzzDecodeBinaryRequest is FuzzDecodeRequest for the v2 codec: arbitrary
// frame payloads — malformed frames, truncated varints, forged counts —
// must never panic the decoder or make it allocate beyond the input's size,
// and whatever decodes must execute safely and round-trip canonically.
func FuzzDecodeBinaryRequest(f *testing.F) {
	for _, b := range binaryRequestSeeds() {
		f.Add(b)
	}
	f.Add([]byte{0x01, 0x05})             // truncated store
	f.Add([]byte{0x01, 0xff})             // unknown opcode
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // truncated varint ID
	m := NewMemory(16)
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, req, err := decodeRequestPayload(payload)
		if err != nil {
			return // undecodable frames close the connection before the handler
		}
		if n := requestElems(req); n > len(payload) {
			t.Fatalf("decoded %d elements from %d bytes: over-allocation", n, len(payload))
		}
		resp := m.Handle(req)
		resp.OK = resp.Error == ""
		// The response the server would send must encode and round-trip.
		rb1, err := encodeResponsePayload(nil, id, resp)
		if err != nil {
			t.Fatalf("handler response unencodable: %v (%+v)", err, resp)
		}
		rid, resp2, err := decodeResponsePayload(rb1)
		if err != nil || rid != id {
			t.Fatalf("response round trip failed: id %d→%d, %v", id, rid, err)
		}
		rb2, err := encodeResponsePayload(nil, id, resp2)
		if err != nil || !bytes.Equal(rb1, rb2) {
			t.Fatalf("response re-encode not stable: %v", err)
		}
		// The decoded request must round-trip canonically too.
		b1, err := encodeRequestPayload(nil, id, req)
		if err != nil {
			t.Fatalf("decoded request unencodable: %v (%+v)", err, req)
		}
		id2, req2, err := decodeRequestPayload(b1)
		if err != nil || id2 != id {
			t.Fatalf("request round trip failed: id %d→%d, %v", id, id2, err)
		}
		b2, err := encodeRequestPayload(nil, id, req2)
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("request re-encode not stable: %v\n first % x\nsecond % x", err, b1, b2)
		}
	})
}

// FuzzDecodeBinaryResponse is FuzzDecodeResponse for the v2 codec: the
// decoder must never panic or over-allocate on server-controlled bytes, and
// the busy/terminal classification invariants must hold for whatever
// decodes, exactly as on the JSON codec.
func FuzzDecodeBinaryResponse(f *testing.F) {
	resps := []Response{
		{OK: true},
		{Error: "no such series"},
		{Error: "server at connection capacity; retry", Code: CodeBusy},
		{OK: true, Code: "nonsense"},
		{OK: true, Points: [][2]float64{{1, 0.5}, {2, 0.6}}},
		{OK: true, Names: []string{"a", "b"}},
		{OK: true, Entries: []Registration{{Name: "h", Kind: KindSensor, Addr: "a:1"}}},
		{OK: true, Forecast: &ForecastResult{Value: 0.5, Method: "sw_avg", MAE: 0.01, N: 64}},
		{OK: true, Batch: []Response{{Error: "x", Code: CodeBusy}, {OK: true}}},
		{OK: true, View: &cluster.View{Epoch: 4, Config: cluster.Config{Replication: 2, VNodes: 64}, Members: []cluster.Member{
			{ID: "m1", Kind: "memory", Addr: "a:1", State: cluster.StateActive},
			{ID: "m2", Kind: "memory", Addrs: []string{"b:2", "c:3"}, State: cluster.StateJoining},
		}}},
		{OK: true, View: &cluster.View{}},
		{Error: `store "k": not an owner under epoch 4`, Code: CodeMoved, View: &cluster.View{Epoch: 4, Members: []cluster.Member{
			{ID: "m1", Kind: "memory", Addr: "a:1", State: cluster.StateActive},
		}}},
		{OK: true, Digests: []SeriesDigest{{Series: "k", Count: 2, Frontier: 2, Sum: 123456789}}},
		{OK: true, Digests: []SeriesDigest{
			{Series: "a"},
			{Series: "b", Count: 1<<64 - 1, Frontier: -1e308, Sum: 1<<64 - 1},
		}},
	}
	for _, r := range resps {
		if b, err := encodeResponsePayload(nil, 1, r); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{0x00, 0x08})       // ID 0, batch flag, truncated
	f.Add([]byte{0x01, 0xff, 0x00}) // all flags, empty sections
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, resp, err := decodeResponsePayload(payload)
		if err != nil {
			return // undecodable responses surface as transport errors
		}
		if n := responseElems(resp); n > len(payload) {
			t.Fatalf("decoded %d elements from %d bytes: over-allocation", n, len(payload))
		}
		rerr := respError("fuzz:0", resp)
		switch {
		case resp.Code == CodeBusy:
			if rerr == nil || !IsBusy(rerr) || resilience.IsTerminal(rerr) {
				t.Fatalf("busy response misclassified: %v", rerr)
			}
		case resp.Code == CodeMoved:
			if rerr == nil || !resilience.IsTerminal(rerr) || IsBusy(rerr) {
				t.Fatalf("moved response misclassified: %v", rerr)
			}
			if _, ok := IsMoved(rerr); !ok {
				t.Fatalf("moved response lost its MovedError type: %v", rerr)
			}
		case resp.Error != "":
			if rerr == nil || !resilience.IsTerminal(rerr) || IsBusy(rerr) {
				t.Fatalf("rejection misclassified: %v", rerr)
			}
		default:
			if rerr != nil {
				t.Fatalf("clean response classified as error: %v", rerr)
			}
		}
		b1, err := encodeResponsePayload(nil, 3, resp)
		if err != nil {
			t.Fatalf("decoded response unencodable: %v (%+v)", err, resp)
		}
		_, resp2, err := decodeResponsePayload(b1)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		b2, err := encodeResponsePayload(nil, 3, resp2)
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("re-encode not stable: %v\n first % x\nsecond % x", err, b1, b2)
		}
	})
}

// durableSeedFiles writes a small durable memory — series defines, single
// and multi-point stores, a backfill, a checkpoint, more of each after it —
// and returns its newest log generation and snapshot images.
func durableSeedFiles(f *testing.F) (log, snap []byte) {
	dir := f.TempDir()
	pm, err := NewPersistentMemory(8, dir)
	if err != nil {
		f.Fatal(err)
	}
	defer pm.Close()
	drive := func(base float64) {
		pm.Handle(Request{Op: OpStore, Series: "a/cpu/vmstat", Points: [][2]float64{{base + 10, 0.5}}})
		pm.Handle(Request{Op: OpStore, Series: "b\x00/cpu", Points: [][2]float64{{base + 10, 0.25}, {base + 20, 0.25}, {base + 30, 1}}})
		pm.Handle(Request{Op: OpBackfill, Series: "a/cpu/vmstat", Points: [][2]float64{{base + 5, 0.75}, {base + 7, 0}}})
		pm.Handle(Request{Op: OpBatch, Batch: []Request{
			{Op: OpStore, Series: "a/cpu/vmstat", Points: [][2]float64{{base + 20, 0.5}}},
			{Op: OpStore, Series: "", Points: [][2]float64{{1, 1}}},
			{Op: OpStore, Series: "c", Points: [][2]float64{{base + 20, math.Inf(1)}}},
		}})
	}
	drive(0)
	if err := pm.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	drive(100)
	paths, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if filepath.Ext(path) == snapExt {
			snap = data
		} else {
			log = data
		}
	}
	return log, snap
}

// samePoints compares point arrays bit for bit (NaN equals itself).
func samePoints(a, b [][2]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for k := 0; k < 2; k++ {
			if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
				return false
			}
		}
	}
	return true
}

// FuzzWALFrame feeds arbitrary bytes to the journal's frame and record
// decoders, as recovery does with whatever it finds on disk. Decoding must
// never panic and never hold more points than the bytes it was given could
// encode, and whatever it accepts must survive an encode → decode round trip
// unchanged.
func FuzzWALFrame(f *testing.F) {
	log, _ := durableSeedFiles(f)
	for len(log) > 0 { // every real frame: defines, stores, a backfill, an envelope's worth
		_, size, err := splitFrame(log)
		if err != nil {
			f.Fatalf("seed log: %v", err)
		}
		f.Add(log[:size])
		f.Add(log[frameHeader:size])
		log = log[size:]
	}
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, recStore, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		frameFollows(data)
		payload, size, err := splitFrame(data)
		if err != nil {
			// Mutations rarely survive the checksum: fuzz the record grammar
			// behind it with the raw bytes too.
			payload = data
		} else if size > len(data) || len(payload) != size-frameHeader {
			t.Fatalf("frame of %d bytes with a %d-byte payload out of %d bytes", size, len(payload), len(data))
		}
		var scratch [][2]float64
		decode := func(payload []byte) (recs []walRecord, err error) {
			err = decodeRecords(payload, &scratch, func(rec walRecord) error {
				rec.pts = append([][2]float64(nil), rec.pts...)
				recs = append(recs, rec)
				return nil
			})
			return recs, err
		}
		recs, err := decode(payload)
		if cap(scratch) > len(payload) {
			t.Fatalf("decoder holds room for %d points from a %d-byte payload", cap(scratch), len(payload))
		}
		if err != nil || len(recs) == 0 { // an empty frame is never written, and never accepted
			return
		}
		frame := make([]byte, frameHeader)
		for _, rec := range recs {
			if rec.kind == recDefine {
				frame = appendDefine(frame, rec.id, rec.key)
			} else {
				frame = appendPointsRecord(frame, rec.kind, rec.id, rec.pts)
			}
		}
		sealFrame(frame)
		payload, _, err = splitFrame(frame)
		if err != nil {
			t.Fatalf("re-encoded frame does not split: %v", err)
		}
		again, err := decode(payload)
		if err != nil || len(again) != len(recs) {
			t.Fatalf("re-encoded frame decodes to %d records (%v), want %d", len(again), err, len(recs))
		}
		for i, rec := range recs {
			if g := again[i]; g.kind != rec.kind || g.id != rec.id || g.key != rec.key || !samePoints(g.pts, rec.pts) {
				t.Fatalf("record %d round-trips to %+v, want %+v", i, g, rec)
			}
		}
	})
}

// FuzzSnapshotDecode does the same for a snapshot image.
func FuzzSnapshotDecode(f *testing.F) {
	_, snap := durableSeedFiles(f)
	f.Add(snap)
	f.Add(snap[len(snapMagic) : len(snap)-4])
	f.Add(append([]byte(nil), snapMagic...))
	f.Add(binary.LittleEndian.AppendUint32(append([]byte(nil), snapMagic...), crc32.Checksum(snapMagic, crc32c)))
	type entry struct {
		id  uint32
		key string
		pts [][2]float64
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := snapshotBody(data)
		if err != nil {
			body = data // the entry grammar behind the checksum
		}
		var scratch [][2]float64
		decode := func(body []byte) (entries []entry, err error) {
			err = decodeSnapshotEntries(body, &scratch, func(id uint32, key string, pts [][2]float64) error {
				entries = append(entries, entry{id, key, append([][2]float64(nil), pts...)})
				return nil
			})
			return entries, err
		}
		entries, err := decode(body)
		if cap(scratch) > len(body) {
			t.Fatalf("decoder holds room for %d points from a %d-byte body", cap(scratch), len(body))
		}
		if err != nil {
			return
		}
		image := append([]byte(nil), snapMagic...)
		for _, e := range entries {
			image = appendSnapshotEntry(image, e.id, e.key, e.pts)
		}
		image = binary.LittleEndian.AppendUint32(image, crc32.Checksum(image, crc32c))
		body, err = snapshotBody(image)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not verify: %v", err)
		}
		again, err := decode(body)
		if err != nil || len(again) != len(entries) {
			t.Fatalf("re-encoded snapshot decodes to %d entries (%v), want %d", len(again), err, len(entries))
		}
		for i, e := range entries {
			if g := again[i]; g.id != e.id || g.key != e.key || !samePoints(g.pts, e.pts) {
				t.Fatalf("entry %d round-trips to %+v, want %+v", i, g, e)
			}
		}
	})
}
