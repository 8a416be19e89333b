package nwsnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// The point codec's uvarint kernels, held to encoding/binary value by value,
// and the point arrays they carry, held byte for byte to a frozen copy of
// the byte-at-a-time loops the codec started from.

// refAppendPoints is the byte-at-a-time point-array encoder, frozen: the
// bytes every point array must keep on the wire and on disk.
func refAppendPoints(b []byte, pts [][2]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(pts)))
	var pt, pv uint64
	for _, p := range pts {
		tb, vb := math.Float64bits(p[0]), math.Float64bits(p[1])
		b = binary.AppendUvarint(b, bits.ReverseBytes64(tb^pt))
		b = binary.AppendUvarint(b, bits.ReverseBytes64(vb^pv))
		pt, pv = tb, vb
	}
	return b
}

// refDecodePoints is the byte-at-a-time decoder of the n points at the start
// of b, frozen: it returns the points and the bytes they took, or an error
// on exactly the inputs the codec must reject.
func refDecodePoints(b []byte, n uint64) ([][2]float64, int, error) {
	var dst [][2]float64
	off := 0
	var pt, pv uint64
	for i := uint64(0); i < n; i++ {
		dt, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return nil, 0, errBinMalformed
		}
		off += k
		dv, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return nil, 0, errBinMalformed
		}
		off += k
		pt ^= bits.ReverseBytes64(dt)
		pv ^= bits.ReverseBytes64(dv)
		dst = append(dst, [2]float64{math.Float64frombits(pt), math.Float64frombits(pv)})
	}
	return dst, off, nil
}

// uvarintOfLen returns a random value whose uvarint is exactly l bytes.
func uvarintOfLen(r *rand.Rand, l int) uint64 {
	if l == 1 {
		return r.Uint64N(0x80)
	}
	lo := uint64(1) << (7 * (l - 1))
	if l == 10 {
		return lo | r.Uint64()
	}
	return lo | r.Uint64N(lo<<7-lo)
}

// uvarintValues returns the boundary values of every uvarint length, then n
// seeded values spread evenly over the ten lengths.
func uvarintValues(n int) []uint64 {
	vs := []uint64{0, 1, 1 << 63, 1<<63 - 1, 1<<63 + 1, 1<<64 - 1, 1<<64 - 2}
	for k := 1; k <= 9; k++ {
		vs = append(vs, 1<<(7*k)-1, 1<<(7*k), 1<<(7*k)+1)
	}
	r := rand.New(rand.NewPCG(1, 35))
	for i := 0; i < n; i++ {
		vs = append(vs, uvarintOfLen(r, 1+i%10))
	}
	return vs
}

// uvarintJunk returns b with k bytes after it that a decoder must not read
// into: all continuation bits for odd k, random for even k.
func uvarintJunk(b []byte, k int, r *rand.Rand) []byte {
	for i := 0; i < k; i++ {
		c := byte(0xff)
		if k%2 == 0 {
			c = byte(r.Uint32())
		}
		b = append(b, c)
	}
	return b
}

// TestUvarintKernel holds putUvarint and getUvarint to encoding/binary:
// the same bytes for every value, the same (value, length) back with up to
// 12 junk bytes behind it, and on random byte strings — truncated, 11-byte,
// 10th byte above 1, non-minimal — the same answer, errors included.
func TestUvarintKernel(t *testing.T) {
	n := 1_000_000
	if testing.Short() || raceEnabled {
		n = 50_000
	}
	r := rand.New(rand.NewPCG(2, 35))
	var lens [binary.MaxVarintLen64 + 1]int
	want := make([]byte, 0, 32)
	got := make([]byte, 0, 32)
	for i, v := range uvarintValues(n) {
		want = binary.AppendUvarint(want[:0], v)
		got = putUvarint(got[:0], v)
		if !bytes.Equal(got, want) {
			t.Fatalf("putUvarint(%#x) = % x, binary.AppendUvarint = % x", v, got, want)
		}
		lens[len(want)]++
		got = uvarintJunk(got, i%13, r)
		if gv, gn := getUvarint(got); gv != v || gn != len(want) {
			t.Fatalf("getUvarint(% x) = (%#x, %d), want (%#x, %d)", got, gv, gn, v, len(want))
		}
	}
	for l := 1; l <= binary.MaxVarintLen64; l++ {
		if lens[l] == 0 {
			t.Fatalf("no value of uvarint length %d was tried", l)
		}
	}

	// Appending keeps what is already in the buffer, whatever its spare
	// capacity.
	for c := 3; c < 24; c++ {
		prefix := append(make([]byte, 0, c), 1, 2, 3)
		b := putUvarint(prefix, 1<<64-1)
		if want := binary.AppendUvarint([]byte{1, 2, 3}, 1<<64-1); !bytes.Equal(b, want) {
			t.Fatalf("cap %d: putUvarint appended to a prefix gives % x, want % x", c, b, want)
		}
	}

	// Random byte strings of 1-14 bytes, mostly continuation bytes, with
	// the 10th byte often 0-3 (accepted at 0 and 1, overflow above) and an
	// early 0x00 stop now and then (a non-minimal encoding).
	in := make([]byte, 14)
	for i := 0; i < n; i++ {
		b := in[:1+r.IntN(len(in))]
		for j := range b {
			b[j] = byte(r.Uint32())
			if r.IntN(4) != 0 {
				b[j] |= 0x80
			}
		}
		if len(b) >= 10 && r.IntN(2) == 0 {
			b[9] = byte(r.IntN(4)) | byte(r.IntN(2))<<7
		}
		if r.IntN(8) == 0 {
			b[r.IntN(len(b))] = 0
		}
		wv, wn := binary.Uvarint(b)
		if gv, gn := getUvarint(b); gv != wv || gn != wn {
			t.Fatalf("getUvarint(% x) = (%#x, %d), binary.Uvarint = (%#x, %d)", b, gv, gn, wv, wn)
		}
	}
}

// FuzzUvarint holds the kernels to encoding/binary on arbitrary inputs: the
// decoder on any byte string, the encoder on any value.
func FuzzUvarint(f *testing.F) {
	f.Add([]byte{0x00}, uint64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint64(1<<64-1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00}, uint64(1<<63))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, uint64(1<<56))
	f.Add([]byte{0x80, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}, uint64(0x80))
	f.Add([]byte{0xc0, 0xb2}, uint64(22848))
	f.Fuzz(func(t *testing.T, b []byte, v uint64) {
		wv, wn := binary.Uvarint(b)
		if gv, gn := getUvarint(b); gv != wv || gn != wn {
			t.Fatalf("getUvarint(% x) = (%#x, %d), binary.Uvarint = (%#x, %d)", b, gv, gn, wv, wn)
		}
		want := binary.AppendUvarint(nil, v)
		if got := putUvarint(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("putUvarint(%#x) = % x, binary.AppendUvarint = % x", v, got, want)
		}
	})
}

// refSkipUvarint is one step of skipUvarints one byte at a time: past the
// continuation bytes and the last byte of the uvarint at off.
func refSkipUvarint(b []byte, off int) (int, bool) {
	for off < len(b) && b[off] >= 0x80 {
		off++
	}
	if off == len(b) {
		return off, false
	}
	return off + 1, true
}

// refSkipUvarints is skipUvarints one byte at a time: n steps of
// refSkipUvarint.
func refSkipUvarints(b []byte, n int) (int, bool) {
	off, ok := 0, true
	for ; n > 0 && ok; n-- {
		off, ok = refSkipUvarint(b, off)
	}
	return off, ok
}

// TestSkipUvarints holds the snapshot skim's word-at-a-time skip to the
// byte-at-a-time reference on runs of uvarints of every length, 10-byte ones
// included, skipped n at a time for every n up to one past the run and at
// every cut of it (truncated input). The runs are long enough for the skip's
// 64-byte blocks; they start uvarints, 10-byte ones among them, at every
// offset mod 8 of the word the skip loads, and end runs on a word boundary.
func TestSkipUvarints(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 35))
	var starts, starts10 [8]bool
	var boundary, short int
	for _, lens := range [][]int{{1}, {10}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {10, 9, 10, 1}, {3, 10, 9, 10}, {8, 8, 1}, {10, 1, 1}} {
		var run []byte
		for k := 0; k < 160; k++ {
			l := lens[k%len(lens)]
			starts[len(run)%8] = true
			if l == 10 {
				starts10[len(run)%8] = true
			}
			run = putUvarint(run, uvarintOfLen(r, l))
		}
		for cut := 0; cut <= len(run); cut++ {
			// The reference for n is the one for n-1 and one step more.
			want, wok := 0, true
			for n := 0; n <= 161; n++ {
				if n > 0 && wok {
					want, wok = refSkipUvarint(run[:cut], want)
				}
				got, gok := skipUvarints(run[:cut], n)
				if got != want || gok != wok {
					t.Fatalf("skipping %d uvarints of % x: (%d, %v), reference (%d, %v)", n, run[:cut], got, gok, want, wok)
				}
				if !wok {
					short++
				} else if n > 0 && want%8 == 0 {
					boundary++
				}
			}
		}
	}
	for i := range starts {
		if !starts[i] || !starts10[i] {
			t.Fatalf("no uvarint (%v) or no 10-byte one (%v) starts at offset %d mod 8", starts[i], starts10[i], i)
		}
	}
	if boundary == 0 || short == 0 {
		t.Fatalf("%d runs ended on a word boundary and %d were cut short; want some of each", boundary, short)
	}
}

// FuzzSkipUvarints holds skipUvarints to the reference on any bytes and
// count.
func FuzzSkipUvarints(f *testing.F) {
	f.Add([]byte{0x00}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x05}, uint8(2))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0x01}, uint8(2))
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09}, uint8(10))
	f.Add(bytes.Repeat([]byte{0x81, 0x01, 0xff, 0x7f, 0x00}, 40), uint8(100))
	f.Fuzz(func(t *testing.T, b []byte, n uint8) {
		got, gok := skipUvarints(b, int(n))
		want, wok := refSkipUvarints(b, int(n))
		if got != want || gok != wok {
			t.Fatalf("skipping %d uvarints of % x: (%d, %v), reference (%d, %v)", n, b, got, gok, want, wok)
		}
	})
}

// codecPoints returns an n-point array built from XOR deltas of the given
// uvarint lengths, taken in turn from lens starting at k, so that the
// arrays of consecutive sizes end on different lengths. Every eleventh
// point's value is one of NaN, -0 and ±Inf instead.
func codecPoints(r *rand.Rand, n, k int, lens []int) [][2]float64 {
	pts := make([][2]float64, n)
	var pt, pv uint64
	special := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for i := range pts {
		lt, lv := lens[(k+2*i)%len(lens)], lens[(k+2*i+1)%len(lens)]
		pt ^= bits.ReverseBytes64(uvarintOfLen(r, lt))
		pv ^= bits.ReverseBytes64(uvarintOfLen(r, lv))
		if i%11 == 10 {
			pv = math.Float64bits(special[i/11%len(special)])
		}
		pts[i] = [2]float64{math.Float64frombits(pt), math.Float64frombits(pv)}
	}
	return pts
}

// TestPointsCodecMatchesReference takes arrays of 1-64 points whose XOR
// deltas hit every uvarint length — and whose last varints end at every
// offset of the payload's tail, where the decoder leaves its word-at-a-time
// path — through each consumer of the point codec: the response codec, the
// connection decoder's request path, the log's point records and snapshot
// entries. Each must write the reference's bytes and read back the same
// bits, NaN and -0 included.
func TestPointsCodecMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 35))
	mixes := [][]int{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{10, 9, 10, 1},
		{3, 10, 9, 10}, // the benchmark's shape: short times, noisy values
		{1},
		{8, 9},
	}
	var dec connDecoder
	var scratch [][2]float64
	for _, lens := range mixes {
		for n := 1; n <= 64; n++ {
			for k := 0; k < len(lens); k++ {
				pts := codecPoints(r, n, k, lens)
				ref := refAppendPoints(nil, pts)

				// The response codec: the client's side of a fetch.
				b, err := encodeResponsePayload(nil, 7, &Response{OK: true, Points: pts})
				if err != nil {
					t.Fatal(err)
				}
				if want := append([]byte{0x07, 0x09}, ref...); !bytes.Equal(b, want) {
					t.Fatalf("response of %v:\n got % x\nwant % x", pts, b, want)
				}
				if _, resp, err := decodeResponsePayload(b); err != nil || !samePoints(resp.Points, pts) {
					t.Fatalf("response of %v decodes to %v, %v", pts, resp.Points, err)
				}

				// A store request through a server connection's decoder.
				req := Request{Op: OpStore, Series: "k", Points: pts}
				if b, err = encodeRequestPayload(nil, 7, &req); err != nil {
					t.Fatal(err)
				}
				if want := append([]byte{0x07, binOpStore, 0x01, 'k'}, ref...); !bytes.Equal(b, want) {
					t.Fatalf("request of %v:\n got % x\nwant % x", pts, b, want)
				}
				var got Request
				if _, err := decodeRequest(b, &dec, &got); err != nil || !samePoints(got.Points, pts) {
					t.Fatalf("request of %v decodes to %v, %v", pts, got.Points, err)
				}

				// A log record.
				b = appendPointsRecord(nil, recStore, 300, pts)
				if want := append([]byte{recStore, 0xac, 0x02}, ref...); !bytes.Equal(b, want) {
					t.Fatalf("record of %v:\n got % x\nwant % x", pts, b, want)
				}
				err = decodeRecords(b, &scratch, func(rec walRecord) error {
					if rec.kind != recStore || rec.id != 300 || !samePoints(rec.pts, pts) {
						t.Fatalf("record of %v decodes to %+v", pts, rec)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}

				// A snapshot entry.
				b = appendSnapshotEntry(nil, 300, "k", pts)
				if want := append([]byte{0xac, 0x02, 0x01, 'k'}, ref...); !bytes.Equal(b, want) {
					t.Fatalf("snapshot entry of %v:\n got % x\nwant % x", pts, b, want)
				}
				entries, err := skimSnapshot(b)
				if err != nil || len(entries) != 1 || entries[0].id != 300 || entries[0].key != "k" {
					t.Fatalf("snapshot entry of %v skims to %+v, %v", pts, entries, err)
				}
				if got, err := entries[0].points(&scratch); err != nil || !samePoints(got, pts) {
					t.Fatalf("snapshot entry of %v decodes to %v, %v", pts, got, err)
				}
			}
		}
	}
}

// TestPointsDecodeRejectsLikeReference cuts and corrupts encoded point
// arrays and holds the decoder to the reference: it accepts exactly the
// byte strings the reference accepts, with the same points and length.
func TestPointsDecodeRejectsLikeReference(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 35))
	for n := 1; n <= 24; n++ {
		pts := codecPoints(r, n, n, []int{1, 9, 10, 2, 10, 10})
		body := refAppendPoints(nil, pts)[1:] // past the one-byte count
		try := func(b []byte) {
			want, wn, werr := refDecodePoints(b, uint64(n))
			rd := binReader{b: b}
			got, gerr := rd.appendPoints(nil, uint64(n))
			if (gerr != nil) != (werr != nil) || (werr == nil && (rd.off != wn || !samePoints(got, want))) {
				t.Fatalf("decoding % x: got %v after %d bytes (%v), reference %v after %d (%v)", b, got, rd.off, gerr, want, wn, werr)
			}
		}
		for cut := 0; cut <= len(body); cut++ {
			try(body[:cut])
		}
		b := make([]byte, len(body))
		for i := 0; i < 200; i++ {
			copy(b, body)
			for k := 1 + r.IntN(3); k > 0; k-- {
				b[r.IntN(len(b))] = byte(r.Uint32())
			}
			try(b)
		}
	}
}

// fetchRangePoints is a 1024-point range answer in the shape the benchmark
// reads: times on a 10 s cadence and noisy availability values, whose XOR
// deltas cost 9 or 10 bytes each.
func fetchRangePoints() [][2]float64 {
	r := rand.New(rand.NewPCG(5, 35))
	pts := make([][2]float64, 1024)
	for i := range pts {
		pts[i] = [2]float64{10 * float64(4096+i), r.Float64()}
	}
	return pts
}

// fetchResponseDecodeAllocs is the allocation count of decoding a warm
// 1024-point fetch response: its point slice.
const fetchResponseDecodeAllocs = 1

// TestFetchResponseDecodeAllocs gates the allocations of the client's read
// path: decoding a 1024-point fetch response.
func TestFetchResponseDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; the plain run holds the gate")
	}
	pts := fetchRangePoints()
	payload, err := encodeResponsePayload(nil, 1, &Response{OK: true, Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, resp, err := decodeResponsePayload(payload)
		if err != nil || len(resp.Points) != len(pts) {
			t.Fatalf("decode: %d points, %v", len(resp.Points), err)
		}
	})
	t.Logf("allocs per 1024-point fetch response decode: %.2f", allocs)
	if allocs != fetchResponseDecodeAllocs {
		t.Fatalf("decoding a 1024-point fetch response allocates %.2f times; the gate is %d", allocs, fetchResponseDecodeAllocs)
	}
}

// pointsSink keeps BenchmarkPointsCodec's decoded points live.
var pointsSink [][2]float64

// BenchmarkPointsCodec encodes and decodes a 1024-point range response, the
// bulk of what history_fetch moves, and reports the time per point.
func BenchmarkPointsCodec(b *testing.B) {
	pts := fetchRangePoints()
	resp := Response{OK: true, Points: pts}
	payload, err := encodeResponsePayload(nil, 1, &resp)
	if err != nil {
		b.Fatal(err)
	}
	perPoint := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 2*len(payload))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = encodeResponsePayload(buf[:0], uint64(i+1), &resp); err != nil {
				b.Fatal(err)
			}
		}
		perPoint(b)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, resp, err := decodeResponsePayload(payload)
			if err != nil {
				b.Fatal(err)
			}
			pointsSink = resp.Points
		}
		perPoint(b)
	})
}
