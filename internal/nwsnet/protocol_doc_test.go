package nwsnet

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// These tests keep docs/PROTOCOL.md — the normative wire spec — mechanically
// in sync with the codec. `make docs-check` runs them; a codec change that
// breaks them must update the spec in the same commit.

func protocolDoc(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("reading spec: %v", err)
	}
	return string(b)
}

// TestProtocolDocOpTables compares the spec's opcode table rows — lines of
// the form "| `store` | `0x05` | ..." — against the wireOps registry, both
// directions: every registered op must be documented with its exact opcode,
// and the spec must not document an op the wire does not register.
func TestProtocolDocOpTables(t *testing.T) {
	doc := protocolDoc(t)
	rowRe := regexp.MustCompile("(?m)^\\|\\s*`([a-z]+)`\\s*\\|\\s*`0x([0-9a-fA-F]{2})`\\s*\\|")
	documented := map[Op]byte{}
	for _, m := range rowRe.FindAllStringSubmatch(doc, -1) {
		var code byte
		if _, err := fmt.Sscanf(m[2], "%02x", &code); err != nil {
			t.Fatalf("row %q: bad opcode: %v", m[0], err)
		}
		if prev, dup := documented[Op(m[1])]; dup && prev != code {
			t.Errorf("spec documents op %q twice with different opcodes (0x%02x, 0x%02x)", m[1], prev, code)
		}
		documented[Op(m[1])] = code
	}
	if len(documented) == 0 {
		t.Fatal("no opcode table rows found in docs/PROTOCOL.md — format drift?")
	}
	for op, code := range wireOps {
		doced, ok := documented[op]
		if !ok {
			t.Errorf("op %q (0x%02x) is registered on the wire but missing from the spec's opcode table", op, code)
			continue
		}
		if doced != code {
			t.Errorf("op %q: spec says 0x%02x, wire says 0x%02x", op, doced, code)
		}
	}
	for op := range documented {
		if _, ok := wireOps[op]; !ok {
			t.Errorf("spec's opcode table documents op %q, which the wire does not register", op)
		}
	}
}

// docBlock extracts the fenced code block following the given HTML marker
// comment, e.g. <!-- wire-example: store-request-v2 -->.
func docBlock(t *testing.T, doc, kind, name string) string {
	t.Helper()
	marker := fmt.Sprintf("<!-- %s: %s -->", kind, name)
	i := strings.Index(doc, marker)
	if i < 0 {
		t.Fatalf("marker %q not found in docs/PROTOCOL.md", marker)
	}
	rest := doc[i+len(marker):]
	open := strings.Index(rest, "```")
	if open < 0 {
		t.Fatalf("marker %q: no code fence follows", marker)
	}
	rest = rest[open+3:]
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[nl+1:] // drop the fence's language tag line
	}
	close := strings.Index(rest, "```")
	if close < 0 {
		t.Fatalf("marker %q: unterminated code fence", marker)
	}
	return rest[:close]
}

// docHex parses an annotated hex block: per line, everything after '#' is a
// comment; the rest is whitespace-separated hex bytes.
func docHex(t *testing.T, block string) []byte {
	t.Helper()
	var sb strings.Builder
	for _, line := range strings.Split(block, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		sb.WriteString(strings.Join(strings.Fields(line), ""))
	}
	b, err := hex.DecodeString(sb.String())
	if err != nil {
		t.Fatalf("bad hex in spec block: %v\n%s", err, block)
	}
	return b
}

// TestProtocolDocHexExamples re-encodes the worked examples of the spec from
// the same values and compares byte-for-byte.
func TestProtocolDocHexExamples(t *testing.T) {
	doc := protocolDoc(t)

	binCases := []struct {
		name string
		enc  func() ([]byte, error)
	}{
		{"store-request-v2", func() ([]byte, error) { return encodeRequestPayload(nil, 1, &goldenStoreReq) }},
		{"fetch-request-v2", func() ([]byte, error) { return encodeRequestPayload(nil, 2, &goldenFetchReq) }},
		{"store-response-v2", func() ([]byte, error) { return encodeResponsePayload(nil, 1, &goldenStoreResp) }},
		{"fetch-response-v2", func() ([]byte, error) { return encodeResponsePayload(nil, 2, &goldenFetchResp) }},
		{"digest-request-v2", func() ([]byte, error) { return encodeRequestPayload(nil, 3, &goldenDigestReq) }},
		{"digest-response-v2", func() ([]byte, error) { return encodeResponsePayload(nil, 3, &goldenDigestResp) }},
		{"backfill-request-v2", func() ([]byte, error) { return encodeRequestPayload(nil, 4, &goldenBackfillReq) }},
		{"noisy-fetch-response-v2", func() ([]byte, error) { return encodeResponsePayload(nil, 5, &goldenNoisyResp) }},
	}
	for _, c := range binCases {
		want, err := c.enc()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := docHex(t, docBlock(t, doc, "wire-example", c.name)); !bytes.Equal(got, want) {
			t.Errorf("%s: spec bytes differ from encoder\nspec    % x\nencoder % x", c.name, got, want)
		}
	}

	// The preamble shown in §1 must match the real one.
	if got := docHex(t, docBlock(t, doc, "wire-example", "preamble")); !bytes.Equal(got, wirePreamble[:]) {
		t.Errorf("preamble: spec % x, wire % x", got, wirePreamble[:])
	}
}
