package nwsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"nwscpu/internal/nwsnet/cluster"
)

// This file implements wire protocol v2: the length-prefixed binary codec
// opened by a version preamble on connect. The normative specification —
// frame layout, negotiation, varint float packing, request-ID multiplexing
// rules, and worked hex dumps — is docs/PROTOCOL.md; keep the two in sync
// (TestProtocolDocOpTables and TestProtocolDocHexExamples enforce it).
//
// Design constraints, in order:
//
//   - Exactly the Request/Response semantics a Handler sees in process:
//     the same busy/error classification, the same idempotent-store
//     behavior, the same batch envelope (LocalTransport carries the same
//     values without the codec).
//   - Cheap on the hot path: no reflection, no per-field allocation, pooled
//     encode buffers, values walked and decoded in place rather than copied,
//     a server connection's decoder that packs request points into shared
//     blocks (connDecoder), and varint-packed point arrays (XOR-chained
//     byte-reversed float bits, so repeated values cost one byte).
//   - Safe against hostile bytes: every count is sanity-checked against the
//     remaining frame before anything is allocated, slices grow
//     incrementally, and a malformed frame closes the connection instead of
//     desynchronizing it.

// wireVersionBinary is the wire protocol version carried in the negotiation
// preamble and the server's accept byte: v2, binary frames.
const wireVersionBinary = 2

// wirePreamble is the 5-byte connect preamble a client sends first: a NUL
// (which begins no text line, so a server tells a v2 peer from any other by
// one byte), the ASCII magic "NWS", and the requested protocol version. The
// server answers with a single accept byte: the version the connection will
// speak.
var wirePreamble = [wirePreambleLen]byte{0x00, 'N', 'W', 'S', wireVersionBinary}

// wirePreambleLen is the preamble's size on the wire.
const wirePreambleLen = 5

// maxFrameBytes bounds one binary frame's payload (8 MiB): a fetch of 100k
// points fits comfortably.
const maxFrameBytes = 8 << 20

// maxBatchDepth caps batch-envelope nesting the binary codec will encode or
// decode. Execution rejects any nesting (see Memory.handleBatch); the codec
// cap merely keeps hostile frames from recursing the decoder.
const maxBatchDepth = 4

// Binary opcodes, one per protocol Op. The table is mirrored in the
// "Operations" table of docs/PROTOCOL.md (enforced by docs-check).
const (
	binOpPing        byte = 0x01
	binOpRegister    byte = 0x02
	binOpLookup      byte = 0x03
	binOpList        byte = 0x04
	binOpStore       byte = 0x05
	binOpFetch       byte = 0x06
	binOpSeries      byte = 0x07
	binOpBatch       byte = 0x08
	binOpForecast    byte = 0x09
	binOpJoin        byte = 0x0A
	binOpLease       byte = 0x0B
	binOpView        byte = 0x0C
	binOpSubscribe   byte = 0x0D
	binOpUnsubscribe byte = 0x0E
	binOpHello       byte = 0x0F
	binOpDigest      byte = 0x10
	binOpBackfill    byte = 0x11
)

// wireOps is the canonical Op ↔ opcode registry: the ops the wire speaks.
// docs-check compares the PROTOCOL.md op tables against it.
var wireOps = map[Op]byte{
	OpPing:        binOpPing,
	OpRegister:    binOpRegister,
	OpLookup:      binOpLookup,
	OpList:        binOpList,
	OpStore:       binOpStore,
	OpFetch:       binOpFetch,
	OpSeries:      binOpSeries,
	OpBatch:       binOpBatch,
	OpForecast:    binOpForecast,
	OpJoin:        binOpJoin,
	OpLease:       binOpLease,
	OpView:        binOpView,
	OpSubscribe:   binOpSubscribe,
	OpUnsubscribe: binOpUnsubscribe,
	OpHello:       binOpHello,
	OpDigest:      binOpDigest,
	OpBackfill:    binOpBackfill,
}

// binOpToOp is the decode table, built once from wireOps: the op of every
// assigned opcode, "" for the rest, so decoding an opcode is one index.
var binOpToOp = func() (t [256]Op) {
	for op, c := range wireOps {
		t[c] = op
	}
	return t
}()

// Response flag bits, carried as one uvarint. A presence bit may be set
// only when its section is non-empty, which makes encoding canonical:
// decode ∘ encode is the identity on decoded values. Responses using only
// the low seven bits — every pre-cluster response — encode to the same
// single byte the original fixed flags byte was, so the v2 golden examples
// are unchanged; the view bit (and any future section) costs a second
// flags byte only on the responses that carry it.
const (
	respFlagOK       uint64 = 1 << 0
	respFlagError    uint64 = 1 << 1
	respFlagCode     uint64 = 1 << 2
	respFlagPoints   uint64 = 1 << 3
	respFlagNames    uint64 = 1 << 4
	respFlagEntries  uint64 = 1 << 5
	respFlagForecast uint64 = 1 << 6
	respFlagBatch    uint64 = 1 << 7
	respFlagView     uint64 = 1 << 8
	respFlagDigests  uint64 = 1 << 9

	// respFlagsKnown masks every assigned bit; a decoder rejecting the
	// rest keeps unknown-section frames from silently losing data.
	respFlagsKnown = respFlagOK | respFlagError | respFlagCode | respFlagPoints |
		respFlagNames | respFlagEntries | respFlagForecast | respFlagBatch | respFlagView |
		respFlagDigests
)

// errBinMalformed is the generic decode failure; connections are closed on
// it because binary framing cannot resynchronize after garbage.
var errBinMalformed = errors.New("nwsnet: malformed binary frame")

// encBufPool recycles encode buffers across calls and goroutines; encoding
// on the hot path allocates nothing once the pool is warm.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func getEncBuf() *[]byte  { return encBufPool.Get().(*[]byte) }
func putEncBuf(b *[]byte) { *b = (*b)[:0]; encBufPool.Put(b) }

// --- primitive encoders ---

// The codec's uvarint kernels: the LEB128 of encoding/binary, a word at a
// time. A noisy measurement XORs to a 9- or 10-byte uvarint, which a byte
// loop takes ten steps over; these take one 8-byte store or load, three
// shift/mask steps that move the eight 7-bit groups between their places in
// the value and their bytes, and at most two tail bytes.
const (
	uvarintCont  = 0x8080808080808080 // every byte's continuation bit
	uvarintLanes = 0x7f7f7f7f7f7f7f7f // every byte's seven value bits
)

// uvarintLen is the length of a uvarint by its value's bit length.
var uvarintLen = func() (t [65]uint8) {
	for n := range t {
		t[n] = uint8(max(1, (n+6)/7))
	}
	return t
}()

// putUvarint appends the uvarint of v: the bytes binary.AppendUvarint
// appends. A one-byte value, the common case outside point arrays, is
// appended inline.
func putUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return putUvarintWord(b, v)
}

// putUvarintWord is putUvarint for v ≥ 0x80. It writes ten bytes whatever
// the length, so it may leave up to nine past the new length, inside the
// capacity, for a later append to overwrite.
func putUvarintWord(b []byte, v uint64) []byte {
	n := int(uvarintLen[bits.Len64(v)])
	l := len(b)
	b = slices.Grow(b, binary.MaxVarintLen64)[:l+binary.MaxVarintLen64]
	// Spread the low 56 bits over eight bytes, seven to a byte: 28-bit
	// halves to 32-bit words, 14-bit quarters to 16-bit words, 7-bit
	// eighths to bytes. Then set the continuation bit of every byte before
	// the n-th (all eight when the value runs on past them).
	x := v & (1<<56 - 1)
	x = x&0x000000000fffffff | x&0x00fffffff0000000<<4
	x = x&0x00003fff00003fff | x&0x0fffc0000fffc000<<2
	x = x&0x007f007f007f007f | x&0x3f803f803f803f80<<1
	x |= uvarintCont & (1<<(8*uint(n-1)) - 1)
	binary.LittleEndian.PutUint64(b[l:], x)
	// The ninth byte is bits 56-62, with bit 63 as its continuation bit;
	// the tenth, needed only then, is 1.
	b[l+8] = byte(v >> 56)
	b[l+9] = 1
	return b[:l+n]
}

// getUvarint decodes the uvarint at the start of b: the value and byte count
// binary.Uvarint returns, errors included. Within the last 9 bytes of b it
// is binary.Uvarint.
func getUvarint(b []byte) (uint64, int) {
	if len(b) < binary.MaxVarintLen64 {
		return binary.Uvarint(b)
	}
	x := binary.LittleEndian.Uint64(b)
	if stop := ^x & uvarintCont; stop != 0 {
		// The lowest clear continuation bit ends the value: keep the
		// bytes up to and including its byte.
		return uvarintCompact(x & (stop ^ (stop - 1))), (bits.TrailingZeros64(stop) + 1) / 8
	}
	// Nine or ten bytes, chosen without a branch: noisy values split
	// evenly between the two, which no predictor learns.
	c8, c9 := b[8], b[9]
	more := c8 >> 7 // 1 when a tenth byte follows
	if uint(more)*uint(c9) > 1 {
		return binary.Uvarint(b) // a tenth byte above 1 overflows; it reports it
	}
	return uvarintCompact(x) | uint64(c8&0x7f)<<56 | uint64(c9&more)<<63, 9 + int(more)
}

// uvarintCompact gathers the seven value bits of each of x's bytes into the
// low 56 bits, undoing putUvarint's spread.
func uvarintCompact(x uint64) uint64 {
	x &= uvarintLanes
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	return x&0x000000000fffffff | x&0x0fffffff00000000>>4
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = putUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendStrings appends a string list: a count, then that many strings.
func appendStrings(b []byte, ss []string) []byte {
	b = putUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// appendF64 appends one float64 as the uvarint of its byte-reversed IEEE 754
// bits. Reversal moves the mantissa's trailing zero bytes (ubiquitous in
// measurement values like 0.5 or integral timestamps) to the top of the
// word, so the uvarint drops them: 10000.0 costs 4 bytes instead of 8.
func appendF64(b []byte, f float64) []byte {
	return putUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

// appendPoints appends a [t, v] array: a count, then per point the uvarint
// of ReverseBytes64(bits XOR previous-bits), chained separately for the t
// and v streams. Identical consecutive values (a flat series) cost one byte,
// and slowly-moving ones a few, without any lossy quantization.
func appendPoints(b []byte, pts [][2]float64) []byte {
	b = putUvarint(b, uint64(len(pts)))
	// Grow once for the worst case, two 10-byte uvarints a point, so no
	// word store below reallocates.
	b = slices.Grow(b, 2*binary.MaxVarintLen64*len(pts))
	var pt, pv uint64
	for _, p := range pts {
		tb, vb := math.Float64bits(p[0]), math.Float64bits(p[1])
		b = putUvarint(b, bits.ReverseBytes64(tb^pt))
		b = putUvarint(b, bits.ReverseBytes64(vb^pv))
		pt, pv = tb, vb
	}
	return b
}

// appendRegistration appends a Registration.
func appendRegistration(b []byte, reg *Registration) []byte {
	b = appendString(b, reg.Name)
	b = appendString(b, string(reg.Kind))
	b = appendString(b, reg.Addr)
	return appendStrings(b, reg.Addrs)
}

// appendMember appends a cluster member. A nil member encodes as the
// all-empty member, which the decoder normalizes back to nil, so absent
// and zero members are one wire value.
func appendMember(b []byte, m *cluster.Member) []byte {
	var v cluster.Member
	if m != nil {
		v = *m
	}
	b = appendString(b, v.ID)
	b = appendString(b, v.Kind)
	b = appendString(b, v.Addr)
	b = appendStrings(b, v.Addrs)
	return appendString(b, string(v.State))
}

// appendView appends a membership view: epoch, ring config, then the
// member list.
func appendView(b []byte, v *cluster.View) []byte {
	b = putUvarint(b, v.Epoch)
	b = putUvarint(b, uint64(max(v.Config.Replication, 0)))
	b = putUvarint(b, uint64(max(v.Config.VNodes, 0)))
	b = putUvarint(b, v.Config.Seed)
	b = putUvarint(b, uint64(len(v.Members)))
	for i := range v.Members {
		b = appendMember(b, &v.Members[i])
	}
	return b
}

// --- primitive decoder ---

// binReader walks one frame payload. Every method fails cleanly on
// truncation; nothing panics on hostile input.
type binReader struct {
	b   []byte
	off int
	// dec, when set, is the server connection's decoder state: request
	// points come from its blocks.
	dec *connDecoder
}

// pointsBlock is the number of points per backing block shared by requests.
const pointsBlock = 512

// connDecoder is the request-decode state one server connection keeps
// across frames, so the steady-state decode of a store does not allocate
// its points: pts is the unused tail of a block of points. The points of
// consecutive requests are decoded into it back to back, each request's
// slice capped at its own length (a 3-index slice), so appending to one
// never writes into its neighbour's. A block is never reused: when its tail
// runs short a new one is allocated and the old one lives on only as long
// as the requests that point into it. An array larger than a block gets a
// slice of its own.
//
// The zero value is ready to use.
type connDecoder struct {
	pts [][2]float64
}

// points decodes n ≤ pointsBlock request points, already checked against
// the payload, into the current block.
func (d *connDecoder) points(r *binReader, n uint64) ([][2]float64, error) {
	if uint64(cap(d.pts)) < n {
		d.pts = make([][2]float64, 0, pointsBlock)
	}
	pts, err := r.appendPoints(d.pts, n)
	if err != nil {
		return nil, err
	}
	d.pts = pts[n:]
	return pts[:n:n], nil
}

func (r *binReader) rem() int { return len(r.b) - r.off }

func (r *binReader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errBinMalformed
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := getUvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errBinMalformed
	}
	r.off += n
	return v, nil
}

func (r *binReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.rem()) {
		return "", errBinMalformed
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// strs decodes a string list; an empty list decodes as nil.
func (r *binReader) strs() ([]string, error) {
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	if n > uint64(r.rem()) {
		return nil, errBinMalformed
	}
	ss := make([]string, 0, min(n, 1024))
	for i := uint64(0); i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		ss = append(ss, s)
	}
	return ss, nil
}

func (r *binReader) f64() (float64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits.ReverseBytes64(u)), nil
}

// points decodes a response point array, where presence implies content
// (see the respFlag docs).
func (r *binReader) points() ([][2]float64, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errBinMalformed
	}
	return r.pointsN(n)
}

// pointsN decodes the n points after a count. The count is sanity-checked
// against the remaining payload (a point costs at least two bytes) before
// anything is allocated, and the slice grows incrementally, so a forged
// count cannot make the decoder allocate beyond the frame it was sent in.
// A connection decoder takes arrays that fit one of its blocks.
func (r *binReader) pointsN(n uint64) ([][2]float64, error) {
	if n > uint64(r.rem())/2 {
		return nil, errBinMalformed
	}
	if r.dec != nil && n <= pointsBlock {
		return r.dec.points(r, n)
	}
	return r.appendPoints(make([][2]float64, 0, min(n, 4096)), n)
}

// appendPoints decodes the n XOR-chained points after a count onto dst; the
// caller has checked n against the remaining payload.
func (r *binReader) appendPoints(dst [][2]float64, n uint64) ([][2]float64, error) {
	b, off := r.b, r.off
	var pt, pv uint64
	for i := uint64(0); i < n; i++ {
		dt, k := getUvarint(b[off:])
		if k <= 0 {
			return nil, errBinMalformed
		}
		off += k
		dv, k := getUvarint(b[off:])
		if k <= 0 {
			return nil, errBinMalformed
		}
		off += k
		pt ^= bits.ReverseBytes64(dt)
		pv ^= bits.ReverseBytes64(dv)
		// Two word stores into the slice: a composite literal appended
		// whole goes through a stack temporary, and its 16-byte reload
		// stalls behind the two 8-byte stores that built it.
		dst = append(dst, [2]float64{})
		p := &dst[len(dst)-1]
		p[0], p[1] = math.Float64frombits(pt), math.Float64frombits(pv)
	}
	r.off = off
	return dst, nil
}

func (r *binReader) registration() (Registration, error) {
	var reg Registration
	var err error
	if reg.Name, err = r.str(); err != nil {
		return reg, err
	}
	var kind string
	if kind, err = r.str(); err != nil {
		return reg, err
	}
	reg.Kind = Kind(kind)
	if reg.Addr, err = r.str(); err != nil {
		return reg, err
	}
	reg.Addrs, err = r.strs()
	return reg, err
}

// member decodes a cluster member, normalizing the all-empty member to nil
// so decode ∘ encode is the identity whether or not a member was present.
func (r *binReader) member() (*cluster.Member, error) {
	var m cluster.Member
	var err error
	if m.ID, err = r.str(); err != nil {
		return nil, err
	}
	if m.Kind, err = r.str(); err != nil {
		return nil, err
	}
	if m.Addr, err = r.str(); err != nil {
		return nil, err
	}
	if m.Addrs, err = r.strs(); err != nil {
		return nil, err
	}
	var state string
	if state, err = r.str(); err != nil {
		return nil, err
	}
	m.State = cluster.State(state)
	if m.IsZero() {
		return nil, nil
	}
	return &m, nil
}

// view decodes a membership view.
func (r *binReader) view() (*cluster.View, error) {
	var v cluster.View
	var err error
	if v.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	rep, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	vn, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if rep > uint64(maxFrameBytes) || vn > uint64(maxFrameBytes) {
		return nil, errBinMalformed
	}
	v.Config.Replication = int(rep)
	v.Config.VNodes = int(vn)
	if v.Config.Seed, err = r.uvarint(); err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// A member costs at least five bytes (five length/count prefixes), so
	// the count check below keeps forged counts from allocating beyond the
	// frame.
	if n > uint64(r.rem()) {
		return nil, errBinMalformed
	}
	if n > 0 {
		v.Members = make([]cluster.Member, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			m, err := r.member()
			if err != nil {
				return nil, err
			}
			if m == nil {
				m = &cluster.Member{}
			}
			v.Members = append(v.Members, *m)
		}
	}
	return &v, nil
}

// --- request codec ---

// encodeRequestPayload appends the v2 payload for req tagged with id:
// uvarint request ID, opcode byte, then the op's fields. It fails on ops the
// wire does not register and on batch nesting past maxBatchDepth.
func encodeRequestPayload(b []byte, id uint64, req *Request) ([]byte, error) {
	b = putUvarint(b, id)
	return encodeRequestBody(b, req, 0)
}

func encodeRequestBody(b []byte, req *Request, depth int) ([]byte, error) {
	code, ok := wireOps[req.Op]
	if !ok {
		return nil, fmt.Errorf("nwsnet: op %q has no binary opcode", req.Op)
	}
	b = append(b, code)
	switch req.Op {
	case OpPing, OpSeries:
		// No fields.
	case OpRegister:
		b = appendRegistration(b, &req.Reg)
	case OpLookup:
		b = appendString(b, req.Reg.Name)
	case OpList:
		b = appendString(b, string(req.Reg.Kind))
	case OpStore, OpBackfill:
		b = appendString(b, req.Series)
		b = appendPoints(b, req.Points) // may be empty: the handler, not the codec, refuses it
	case OpFetch:
		b = appendString(b, req.Series)
		b = appendF64(b, req.From)
		b = appendF64(b, req.To)
		b = putUvarint(b, uint64(max(req.Max, 0)))
	case OpForecast, OpSubscribe, OpUnsubscribe, OpDigest:
		b = appendString(b, req.Series)
	case OpHello:
		b = appendString(b, req.Tenant)
	case OpJoin, OpLease:
		b = appendMember(b, req.Member)
		b = putUvarint(b, req.Epoch)
	case OpView:
		b = putUvarint(b, req.Epoch)
	case OpBatch:
		if depth >= maxBatchDepth {
			return nil, fmt.Errorf("nwsnet: batch nesting exceeds depth %d", maxBatchDepth)
		}
		b = putUvarint(b, uint64(len(req.Batch)))
		var err error
		for i := range req.Batch {
			if b, err = encodeRequestBody(b, &req.Batch[i], depth+1); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// decodeRequest decodes one v2 request payload into *req, requiring the
// whole payload be consumed (trailing garbage is a protocol error). With a
// connection decoder d, request points come from d's blocks (see
// connDecoder); with d nil nothing is kept between calls. The decoded value
// is the same either way.
func decodeRequest(b []byte, d *connDecoder, req *Request) (uint64, error) {
	r := binReader{b: b, dec: d}
	id, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if err := decodeRequestBody(&r, req, 0); err != nil {
		return 0, err
	}
	if r.rem() != 0 {
		return 0, errBinMalformed
	}
	return id, nil
}

// decodeRequestBody decodes one request, batch subs in place, into *req,
// which must be zero.
func decodeRequestBody(r *binReader, req *Request, depth int) error {
	code, err := r.u8()
	if err != nil {
		return err
	}
	op := binOpToOp[code]
	if op == "" {
		return fmt.Errorf("nwsnet: unknown binary opcode 0x%02x", code)
	}
	req.Op = op
	switch op {
	case OpPing, OpSeries:
	case OpRegister:
		if req.Reg, err = r.registration(); err != nil {
			return err
		}
	case OpLookup:
		if req.Reg.Name, err = r.str(); err != nil {
			return err
		}
	case OpList:
		var kind string
		if kind, err = r.str(); err != nil {
			return err
		}
		req.Reg.Kind = Kind(kind)
	case OpStore, OpBackfill:
		if req.Series, err = r.str(); err != nil {
			return err
		}
		if req.Points, err = r.requestPoints(); err != nil {
			return err
		}
	case OpFetch:
		if req.Series, err = r.str(); err != nil {
			return err
		}
		if req.From, err = r.f64(); err != nil {
			return err
		}
		if req.To, err = r.f64(); err != nil {
			return err
		}
		var m uint64
		if m, err = r.uvarint(); err != nil {
			return err
		}
		if m > uint64(maxFrameBytes) {
			return errBinMalformed
		}
		req.Max = int(m)
	case OpForecast, OpSubscribe, OpUnsubscribe, OpDigest:
		if req.Series, err = r.str(); err != nil {
			return err
		}
	case OpHello:
		if req.Tenant, err = r.str(); err != nil {
			return err
		}
	case OpJoin, OpLease:
		if req.Member, err = r.member(); err != nil {
			return err
		}
		if req.Epoch, err = r.uvarint(); err != nil {
			return err
		}
	case OpView:
		if req.Epoch, err = r.uvarint(); err != nil {
			return err
		}
	case OpBatch:
		if depth >= maxBatchDepth {
			return errBinMalformed
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(r.rem()) {
			return errBinMalformed
		}
		if n > 0 {
			req.Batch = make([]Request, 0, min(n, 1024))
			for i := uint64(0); i < n; i++ {
				req.Batch = append(req.Batch, Request{})
				if err := decodeRequestBody(r, &req.Batch[i], depth+1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// requestPoints decodes a request point array, where — unlike response
// sections — an empty array is legal (the handler rejects it, as in process).
func (r *binReader) requestPoints() ([][2]float64, error) {
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	return r.pointsN(n)
}

// --- response codec ---

// encodeResponsePayload appends the v2 payload for resp tagged with id:
// uvarint ID, a flags byte (presence bits set only for non-empty sections),
// then the present sections in flag-bit order.
func encodeResponsePayload(b []byte, id uint64, resp *Response) ([]byte, error) {
	b = putUvarint(b, id)
	return encodeResponseBody(b, resp, 0)
}

func encodeResponseBody(b []byte, resp *Response, depth int) ([]byte, error) {
	var flags uint64
	if resp.OK {
		flags |= respFlagOK
	}
	if resp.Error != "" {
		flags |= respFlagError
	}
	if resp.Code != "" {
		flags |= respFlagCode
	}
	if len(resp.Points) > 0 {
		flags |= respFlagPoints
	}
	if len(resp.Names) > 0 {
		flags |= respFlagNames
	}
	if len(resp.Entries) > 0 {
		flags |= respFlagEntries
	}
	if resp.Forecast != nil {
		flags |= respFlagForecast
	}
	if len(resp.Batch) > 0 {
		flags |= respFlagBatch
	}
	if resp.View != nil {
		flags |= respFlagView
	}
	if len(resp.Digests) > 0 {
		flags |= respFlagDigests
	}
	b = putUvarint(b, flags)
	if flags&respFlagError != 0 {
		b = appendString(b, resp.Error)
	}
	if flags&respFlagCode != 0 {
		b = appendString(b, resp.Code)
	}
	if flags&respFlagPoints != 0 {
		b = appendPoints(b, resp.Points)
	}
	if flags&respFlagNames != 0 {
		b = appendStrings(b, resp.Names)
	}
	if flags&respFlagEntries != 0 {
		b = putUvarint(b, uint64(len(resp.Entries)))
		for i := range resp.Entries {
			b = appendRegistration(b, &resp.Entries[i])
		}
	}
	if flags&respFlagForecast != 0 {
		f := resp.Forecast
		b = appendF64(b, f.Value)
		b = appendString(b, f.Method)
		b = appendF64(b, f.MAE)
		b = putUvarint(b, uint64(max(f.N, 0)))
	}
	if flags&respFlagBatch != 0 {
		if depth >= maxBatchDepth {
			return nil, fmt.Errorf("nwsnet: batch nesting exceeds depth %d", maxBatchDepth)
		}
		b = putUvarint(b, uint64(len(resp.Batch)))
		var err error
		for i := range resp.Batch {
			if b, err = encodeResponseBody(b, &resp.Batch[i], depth+1); err != nil {
				return nil, err
			}
		}
	}
	if flags&respFlagView != 0 {
		b = appendView(b, resp.View)
	}
	if flags&respFlagDigests != 0 {
		b = putUvarint(b, uint64(len(resp.Digests)))
		for _, d := range resp.Digests {
			b = appendString(b, d.Series)
			b = putUvarint(b, d.Count)
			b = appendF64(b, d.Frontier)
			b = putUvarint(b, d.Sum)
		}
	}
	return b, nil
}

// decodeResponsePayload decodes one v2 response payload, requiring full
// consumption and canonical presence bits (a set bit with an empty section
// is malformed), so decode ∘ encode is the identity.
func decodeResponsePayload(b []byte) (uint64, Response, error) {
	r := binReader{b: b}
	id, err := r.uvarint()
	if err != nil {
		return 0, Response{}, err
	}
	var resp Response
	if err := decodeResponseBody(&r, &resp, 0); err != nil {
		return 0, Response{}, err
	}
	if r.rem() != 0 {
		return 0, Response{}, errBinMalformed
	}
	return id, resp, nil
}

// decodeResponseBody decodes one response, batch subs in place, into *resp,
// which must be zero.
func decodeResponseBody(r *binReader, resp *Response, depth int) error {
	flags, err := r.uvarint()
	if err != nil {
		return err
	}
	if flags&^respFlagsKnown != 0 {
		// An unassigned presence bit would mean a section this decoder
		// cannot parse (and would silently drop on re-encode): malformed.
		return errBinMalformed
	}
	resp.OK = flags&respFlagOK != 0
	if flags&respFlagError != 0 {
		if resp.Error, err = r.str(); err != nil {
			return err
		}
		if resp.Error == "" {
			return errBinMalformed
		}
	}
	if flags&respFlagCode != 0 {
		if resp.Code, err = r.str(); err != nil {
			return err
		}
		if resp.Code == "" {
			return errBinMalformed
		}
	}
	if flags&respFlagPoints != 0 {
		if resp.Points, err = r.points(); err != nil {
			return err
		}
	}
	if flags&respFlagNames != 0 {
		if resp.Names, err = r.strs(); err != nil {
			return err
		}
		if resp.Names == nil {
			return errBinMalformed // presence implies content
		}
	}
	if flags&respFlagEntries != 0 {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n == 0 || n > uint64(r.rem()) {
			return errBinMalformed
		}
		resp.Entries = make([]Registration, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			reg, err := r.registration()
			if err != nil {
				return err
			}
			resp.Entries = append(resp.Entries, reg)
		}
	}
	if flags&respFlagForecast != 0 {
		var f ForecastResult
		if f.Value, err = r.f64(); err != nil {
			return err
		}
		if f.Method, err = r.str(); err != nil {
			return err
		}
		if f.MAE, err = r.f64(); err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(maxFrameBytes) {
			return errBinMalformed
		}
		f.N = int(n)
		resp.Forecast = &f
	}
	if flags&respFlagBatch != 0 {
		if depth >= maxBatchDepth {
			return errBinMalformed
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n == 0 || n > uint64(r.rem()) {
			return errBinMalformed
		}
		resp.Batch = make([]Response, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			resp.Batch = append(resp.Batch, Response{})
			if err := decodeResponseBody(r, &resp.Batch[i], depth+1); err != nil {
				return err
			}
		}
	}
	if flags&respFlagView != 0 {
		if resp.View, err = r.view(); err != nil {
			return err
		}
	}
	if flags&respFlagDigests != 0 {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		// A digest costs at least four bytes (length prefix plus three
		// varints), so the count check keeps forged counts from allocating
		// beyond the frame.
		if n == 0 || n > uint64(r.rem()) {
			return errBinMalformed
		}
		resp.Digests = make([]SeriesDigest, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			var d SeriesDigest
			if d.Series, err = r.str(); err != nil {
				return err
			}
			if d.Count, err = r.uvarint(); err != nil {
				return err
			}
			if d.Frontier, err = r.f64(); err != nil {
				return err
			}
			if d.Sum, err = r.uvarint(); err != nil {
				return err
			}
			resp.Digests = append(resp.Digests, d)
		}
	}
	return nil
}

// --- framing ---

// writeFrame writes one length-prefixed frame (4-byte big-endian payload
// length, then the payload) without flushing; callers coalesce flushes
// across pipelined frames.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("nwsnet: frame payload %d bytes exceeds %d", len(payload), maxFrameBytes)
	}
	// The header is appended in the writer's own spare buffer, so it costs
	// no allocation (a local array would escape through Write).
	if _, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameBufKeep is the largest read buffer a connection keeps between
// frames. A bigger frame is read into a buffer of its own, which is garbage
// once the frame is decoded, so one 8 MiB frame does not pin 8 MiB for the
// rest of the connection's life.
const frameBufKeep = 64 << 10

// readFrame reads one frame into *buf (grown as needed up to frameBufKeep
// and reused across calls) and returns the payload plus how many bytes of
// the frame had arrived before the error, letting callers distinguish a
// clean idle timeout (zero bytes) from one that cut a frame in half. The
// payload is valid until the next call.
func readFrame(r *bufio.Reader, buf *[]byte) ([]byte, int, error) {
	// Peek reads the header in place in the reader's buffer (a local array
	// would escape through the io.Reader); on error it returns what arrived.
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, len(hdr), err
	}
	size := binary.BigEndian.Uint32(hdr)
	r.Discard(4) // cannot fail: Peek just buffered these four bytes
	if size == 0 || size > maxFrameBytes {
		return nil, 4, fmt.Errorf("nwsnet: frame length %d out of range (1..%d)", size, maxFrameBytes)
	}
	var payload []byte
	switch {
	case size > frameBufKeep:
		payload = make([]byte, size)
	case cap(*buf) < int(size):
		*buf = make([]byte, size)
		payload = *buf
	default:
		payload = (*buf)[:size]
	}
	m, err := io.ReadFull(r, payload)
	if err != nil {
		return nil, 4 + m, err
	}
	return payload, 4 + int(size), nil
}
