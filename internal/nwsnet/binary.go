package nwsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"nwscpu/internal/nwsnet/cluster"
)

// This file implements wire protocol v2: the length-prefixed binary codec
// negotiated by a version preamble on connect. The normative specification —
// frame layout, negotiation, varint float packing, request-ID multiplexing
// rules, and worked hex dumps — is docs/PROTOCOL.md; keep the two in sync
// (TestProtocolDocOpTables and TestProtocolDocHexExamples enforce it).
//
// Design constraints, in order:
//
//   - Exactly the Request/Response semantics of the JSON codec: the same
//     busy/error classification, the same idempotent-store behavior, the
//     same batch envelope. A server negotiates per connection, so v1 and v2
//     clients coexist against one listener.
//   - Cheap on the hot path: no reflection, no per-field allocation, pooled
//     encode buffers, and varint-packed point arrays (XOR-chained
//     byte-reversed float bits, so repeated values cost one byte).
//   - Safe against hostile bytes: every count is sanity-checked against the
//     remaining frame before anything is allocated, slices grow
//     incrementally, and a malformed frame closes the connection instead of
//     desynchronizing it.

// Wire protocol versions carried in the negotiation preamble and the
// server's accept byte.
const (
	wireVersionJSON   = 1 // v1: JSON lines (the implicit version when no preamble is sent)
	wireVersionBinary = 2 // v2: binary frames
)

// wirePreamble is the 5-byte connect preamble a binary client sends first:
// a NUL (which can never begin a JSON line, so v1 sniffing is unambiguous),
// the ASCII magic "NWS", and the requested protocol version. The server
// answers with a single accept byte: the version the connection will speak.
var wirePreamble = [wirePreambleLen]byte{0x00, 'N', 'W', 'S', wireVersionBinary}

// wirePreambleLen is the preamble's size on the wire.
const wirePreambleLen = 5

// maxFrameBytes bounds one binary frame's payload, matching maxLineBytes so
// neither codec can make the peer buffer more than the other.
const maxFrameBytes = maxLineBytes

// wireReadAhead is how many decoded requests a binary server connection
// buffers between its frame reader and its executor — the server half of
// pipelining. Past it the reader blocks, which backpressures the client
// through TCP instead of queueing without bound.
const wireReadAhead = 256

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

// wireOps is the canonical Op ↔ opcode registry: the ops the wire speaks, in
// both codecs. docs-check compares the PROTOCOL.md op tables against it.
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

// binOpToOp is the reverse mapping, built once at init.
var binOpToOp = func() map[byte]Op {
	m := make(map[byte]Op, len(wireOps))
	for op, c := range wireOps {
		m[c] = op
	}
	return m
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

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendF64 appends one float64 as the uvarint of its byte-reversed IEEE 754
// bits. Reversal moves the mantissa's trailing zero bytes (ubiquitous in
// measurement values like 0.5 or integral timestamps) to the top of the
// word, so the uvarint drops them: 10000.0 costs 4 bytes instead of 8.
func appendF64(b []byte, f float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

// appendPoints appends a [t, v] array: a count, then per point the uvarint
// of ReverseBytes64(bits XOR previous-bits), chained separately for the t
// and v streams. Identical consecutive values (a flat series) cost one byte,
// and slowly-moving ones a few, without any lossy quantization.
func appendPoints(b []byte, pts [][2]float64) []byte {
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

// appendRegistration appends a Registration.
func appendRegistration(b []byte, reg Registration) []byte {
	b = appendString(b, reg.Name)
	b = appendString(b, string(reg.Kind))
	b = appendString(b, reg.Addr)
	b = binary.AppendUvarint(b, uint64(len(reg.Addrs)))
	for _, a := range reg.Addrs {
		b = appendString(b, a)
	}
	return b
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
	b = binary.AppendUvarint(b, uint64(len(v.Addrs)))
	for _, a := range v.Addrs {
		b = appendString(b, a)
	}
	return appendString(b, string(v.State))
}

// appendView appends a membership view: epoch, ring config, then the
// member list.
func appendView(b []byte, v *cluster.View) []byte {
	b = binary.AppendUvarint(b, v.Epoch)
	b = binary.AppendUvarint(b, uint64(max(v.Config.Replication, 0)))
	b = binary.AppendUvarint(b, uint64(max(v.Config.VNodes, 0)))
	b = binary.AppendUvarint(b, v.Config.Seed)
	b = binary.AppendUvarint(b, uint64(len(v.Members)))
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
	v, n := binary.Uvarint(r.b[r.off:])
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

func (r *binReader) f64() (float64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits.ReverseBytes64(u)), nil
}

// points decodes a point array. The count is sanity-checked against the
// remaining payload (a point costs at least two bytes) before anything is
// allocated, and the slice grows incrementally, so a forged count cannot
// make the decoder allocate beyond the frame it was sent in.
func (r *binReader) points() ([][2]float64, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errBinMalformed // presence implies content; see respFlag docs
	}
	if n > uint64(r.rem())/2 {
		return nil, errBinMalformed
	}
	return r.appendPoints(make([][2]float64, 0, min(n, 4096)), n)
}

// appendPoints decodes the n XOR-chained points after a count onto dst; the
// caller has checked n against the remaining payload.
func (r *binReader) appendPoints(dst [][2]float64, n uint64) ([][2]float64, error) {
	var pt, pv uint64
	for i := uint64(0); i < n; i++ {
		dt, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		dv, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pt ^= bits.ReverseBytes64(dt)
		pv ^= bits.ReverseBytes64(dv)
		dst = append(dst, [2]float64{math.Float64frombits(pt), math.Float64frombits(pv)})
	}
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
	n, err := r.uvarint()
	if err != nil {
		return reg, err
	}
	if n > uint64(r.rem()) {
		return reg, errBinMalformed
	}
	if n > 0 {
		reg.Addrs = make([]string, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			a, err := r.str()
			if err != nil {
				return reg, err
			}
			reg.Addrs = append(reg.Addrs, a)
		}
	}
	return reg, nil
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
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.rem()) {
		return nil, errBinMalformed
	}
	if n > 0 {
		m.Addrs = make([]string, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			a, err := r.str()
			if err != nil {
				return nil, err
			}
			m.Addrs = append(m.Addrs, a)
		}
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
func encodeRequestPayload(b []byte, id uint64, req Request) ([]byte, error) {
	b = binary.AppendUvarint(b, id)
	return encodeRequestBody(b, req, 0)
}

func encodeRequestBody(b []byte, req Request, depth int) ([]byte, error) {
	code, ok := wireOps[req.Op]
	if !ok {
		return nil, fmt.Errorf("nwsnet: op %q has no binary opcode", req.Op)
	}
	b = append(b, code)
	switch req.Op {
	case OpPing, OpSeries:
		// No fields.
	case OpRegister:
		b = appendRegistration(b, req.Reg)
	case OpLookup:
		b = appendString(b, req.Reg.Name)
	case OpList:
		b = appendString(b, string(req.Reg.Kind))
	case OpStore:
		b = appendString(b, req.Series)
		b = appendPoints2(b, req.Points)
	case OpFetch:
		b = appendString(b, req.Series)
		b = appendF64(b, req.From)
		b = appendF64(b, req.To)
		b = binary.AppendUvarint(b, uint64(max(req.Max, 0)))
	case OpForecast, OpSubscribe, OpUnsubscribe, OpDigest:
		b = appendString(b, req.Series)
	case OpBackfill:
		b = appendString(b, req.Series)
		b = appendPoints2(b, req.Points)
	case OpHello:
		b = appendString(b, req.Tenant)
	case OpJoin, OpLease:
		b = appendMember(b, req.Member)
		b = binary.AppendUvarint(b, req.Epoch)
	case OpView:
		b = binary.AppendUvarint(b, req.Epoch)
	case OpBatch:
		if depth >= maxBatchDepth {
			return nil, fmt.Errorf("nwsnet: batch nesting exceeds depth %d", maxBatchDepth)
		}
		b = binary.AppendUvarint(b, uint64(len(req.Batch)))
		var err error
		for _, sub := range req.Batch {
			if b, err = encodeRequestBody(b, sub, depth+1); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// appendPoints2 is appendPoints permitting the empty array requests carry
// (a store with no points is rejected by the handler, not the codec, to
// match the JSON codec's behavior bit for bit).
func appendPoints2(b []byte, pts [][2]float64) []byte {
	if len(pts) == 0 {
		return binary.AppendUvarint(b, 0)
	}
	return appendPoints(b, pts)
}

// decodeRequestPayload decodes one v2 request payload, requiring the whole
// payload be consumed (trailing garbage is a protocol error).
func decodeRequestPayload(b []byte) (uint64, Request, error) {
	r := binReader{b: b}
	id, err := r.uvarint()
	if err != nil {
		return 0, Request{}, err
	}
	req, err := decodeRequestBody(&r, 0)
	if err != nil {
		return 0, Request{}, err
	}
	if r.rem() != 0 {
		return 0, Request{}, errBinMalformed
	}
	return id, req, nil
}

func decodeRequestBody(r *binReader, depth int) (Request, error) {
	var req Request
	code, err := r.u8()
	if err != nil {
		return req, err
	}
	op, ok := binOpToOp[code]
	if !ok {
		return req, fmt.Errorf("nwsnet: unknown binary opcode 0x%02x", code)
	}
	req.Op = op
	switch op {
	case OpPing, OpSeries:
	case OpRegister:
		if req.Reg, err = r.registration(); err != nil {
			return req, err
		}
	case OpLookup:
		if req.Reg.Name, err = r.str(); err != nil {
			return req, err
		}
	case OpList:
		var kind string
		if kind, err = r.str(); err != nil {
			return req, err
		}
		req.Reg.Kind = Kind(kind)
	case OpStore:
		if req.Series, err = r.str(); err != nil {
			return req, err
		}
		if req.Points, err = requestPoints(r); err != nil {
			return req, err
		}
	case OpFetch:
		if req.Series, err = r.str(); err != nil {
			return req, err
		}
		if req.From, err = r.f64(); err != nil {
			return req, err
		}
		if req.To, err = r.f64(); err != nil {
			return req, err
		}
		var m uint64
		if m, err = r.uvarint(); err != nil {
			return req, err
		}
		if m > uint64(maxFrameBytes) {
			return req, errBinMalformed
		}
		req.Max = int(m)
	case OpForecast, OpSubscribe, OpUnsubscribe, OpDigest:
		if req.Series, err = r.str(); err != nil {
			return req, err
		}
	case OpBackfill:
		if req.Series, err = r.str(); err != nil {
			return req, err
		}
		if req.Points, err = requestPoints(r); err != nil {
			return req, err
		}
	case OpHello:
		if req.Tenant, err = r.str(); err != nil {
			return req, err
		}
	case OpJoin, OpLease:
		if req.Member, err = r.member(); err != nil {
			return req, err
		}
		if req.Epoch, err = r.uvarint(); err != nil {
			return req, err
		}
	case OpView:
		if req.Epoch, err = r.uvarint(); err != nil {
			return req, err
		}
	case OpBatch:
		if depth >= maxBatchDepth {
			return req, errBinMalformed
		}
		n, err := r.uvarint()
		if err != nil {
			return req, err
		}
		if n > uint64(r.rem()) {
			return req, errBinMalformed
		}
		if n > 0 {
			req.Batch = make([]Request, 0, min(n, 1024))
			for i := uint64(0); i < n; i++ {
				sub, err := decodeRequestBody(r, depth+1)
				if err != nil {
					return req, err
				}
				req.Batch = append(req.Batch, sub)
			}
		}
	}
	return req, nil
}

// requestPoints decodes a request point array, where — unlike response
// sections — an empty array is legal (the handler rejects it, as with JSON).
func requestPoints(r *binReader) ([][2]float64, error) {
	save := *r
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	*r = save
	return r.points()
}

// --- response codec ---

// encodeResponsePayload appends the v2 payload for resp tagged with id:
// uvarint ID, a flags byte (presence bits set only for non-empty sections),
// then the present sections in flag-bit order.
func encodeResponsePayload(b []byte, id uint64, resp Response) ([]byte, error) {
	b = binary.AppendUvarint(b, id)
	return encodeResponseBody(b, resp, 0)
}

func encodeResponseBody(b []byte, resp Response, depth int) ([]byte, error) {
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
	b = binary.AppendUvarint(b, flags)
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
		b = binary.AppendUvarint(b, uint64(len(resp.Names)))
		for _, n := range resp.Names {
			b = appendString(b, n)
		}
	}
	if flags&respFlagEntries != 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.Entries)))
		for _, e := range resp.Entries {
			b = appendRegistration(b, e)
		}
	}
	if flags&respFlagForecast != 0 {
		f := resp.Forecast
		b = appendF64(b, f.Value)
		b = appendString(b, f.Method)
		b = appendF64(b, f.MAE)
		b = binary.AppendUvarint(b, uint64(max(f.N, 0)))
	}
	if flags&respFlagBatch != 0 {
		if depth >= maxBatchDepth {
			return nil, fmt.Errorf("nwsnet: batch nesting exceeds depth %d", maxBatchDepth)
		}
		b = binary.AppendUvarint(b, uint64(len(resp.Batch)))
		var err error
		for _, sub := range resp.Batch {
			if b, err = encodeResponseBody(b, sub, depth+1); err != nil {
				return nil, err
			}
		}
	}
	if flags&respFlagView != 0 {
		b = appendView(b, resp.View)
	}
	if flags&respFlagDigests != 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.Digests)))
		for _, d := range resp.Digests {
			b = appendString(b, d.Series)
			b = binary.AppendUvarint(b, d.Count)
			b = appendF64(b, d.Frontier)
			b = binary.AppendUvarint(b, d.Sum)
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
	resp, err := decodeResponseBody(&r, 0)
	if err != nil {
		return 0, Response{}, err
	}
	if r.rem() != 0 {
		return 0, Response{}, errBinMalformed
	}
	return id, resp, nil
}

func decodeResponseBody(r *binReader, depth int) (Response, error) {
	var resp Response
	flags, err := r.uvarint()
	if err != nil {
		return resp, err
	}
	if flags&^respFlagsKnown != 0 {
		// An unassigned presence bit would mean a section this decoder
		// cannot parse (and would silently drop on re-encode): malformed.
		return resp, errBinMalformed
	}
	resp.OK = flags&respFlagOK != 0
	if flags&respFlagError != 0 {
		if resp.Error, err = r.str(); err != nil {
			return resp, err
		}
		if resp.Error == "" {
			return resp, errBinMalformed
		}
	}
	if flags&respFlagCode != 0 {
		if resp.Code, err = r.str(); err != nil {
			return resp, err
		}
		if resp.Code == "" {
			return resp, errBinMalformed
		}
	}
	if flags&respFlagPoints != 0 {
		if resp.Points, err = r.points(); err != nil {
			return resp, err
		}
	}
	if flags&respFlagNames != 0 {
		n, err := r.uvarint()
		if err != nil {
			return resp, err
		}
		if n == 0 || n > uint64(r.rem()) {
			return resp, errBinMalformed
		}
		resp.Names = make([]string, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			s, err := r.str()
			if err != nil {
				return resp, err
			}
			resp.Names = append(resp.Names, s)
		}
	}
	if flags&respFlagEntries != 0 {
		n, err := r.uvarint()
		if err != nil {
			return resp, err
		}
		if n == 0 || n > uint64(r.rem()) {
			return resp, errBinMalformed
		}
		resp.Entries = make([]Registration, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			reg, err := r.registration()
			if err != nil {
				return resp, err
			}
			resp.Entries = append(resp.Entries, reg)
		}
	}
	if flags&respFlagForecast != 0 {
		var f ForecastResult
		if f.Value, err = r.f64(); err != nil {
			return resp, err
		}
		if f.Method, err = r.str(); err != nil {
			return resp, err
		}
		if f.MAE, err = r.f64(); err != nil {
			return resp, err
		}
		n, err := r.uvarint()
		if err != nil {
			return resp, err
		}
		if n > uint64(maxFrameBytes) {
			return resp, errBinMalformed
		}
		f.N = int(n)
		resp.Forecast = &f
	}
	if flags&respFlagBatch != 0 {
		if depth >= maxBatchDepth {
			return resp, errBinMalformed
		}
		n, err := r.uvarint()
		if err != nil {
			return resp, err
		}
		if n == 0 || n > uint64(r.rem()) {
			return resp, errBinMalformed
		}
		resp.Batch = make([]Response, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			sub, err := decodeResponseBody(r, depth+1)
			if err != nil {
				return resp, err
			}
			resp.Batch = append(resp.Batch, sub)
		}
	}
	if flags&respFlagView != 0 {
		if resp.View, err = r.view(); err != nil {
			return resp, err
		}
	}
	if flags&respFlagDigests != 0 {
		n, err := r.uvarint()
		if err != nil {
			return resp, err
		}
		// A digest costs at least four bytes (length prefix plus three
		// varints), so the count check keeps forged counts from allocating
		// beyond the frame.
		if n == 0 || n > uint64(r.rem()) {
			return resp, errBinMalformed
		}
		resp.Digests = make([]SeriesDigest, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			var d SeriesDigest
			if d.Series, err = r.str(); err != nil {
				return resp, err
			}
			if d.Count, err = r.uvarint(); err != nil {
				return resp, err
			}
			if d.Frontier, err = r.f64(); err != nil {
				return resp, err
			}
			if d.Sum, err = r.uvarint(); err != nil {
				return resp, err
			}
			resp.Digests = append(resp.Digests, d)
		}
	}
	return resp, nil
}

// --- framing ---

// writeFrame writes one length-prefixed frame (4-byte big-endian payload
// length, then the payload) without flushing; callers coalesce flushes
// across pipelined frames.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("nwsnet: frame payload %d bytes exceeds %d", len(payload), maxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into *buf (grown as needed and reused across
// calls) and returns the payload plus how many bytes were consumed before
// the error, letting callers distinguish a clean idle timeout (zero bytes)
// from one that cut a frame in half.
func readFrame(r *bufio.Reader, buf *[]byte) ([]byte, int, error) {
	var hdr [4]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		return nil, n, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 || size > maxFrameBytes {
		return nil, n, fmt.Errorf("nwsnet: frame length %d out of range (1..%d)", size, maxFrameBytes)
	}
	if cap(*buf) < int(size) {
		*buf = make([]byte, size)
	}
	payload := (*buf)[:size]
	m, err := io.ReadFull(r, payload)
	if err != nil {
		return nil, n + m, err
	}
	return payload, n + int(size), nil
}
