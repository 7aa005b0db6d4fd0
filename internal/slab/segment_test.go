package slab

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
)

func buildSegment(rows [][]byte) ([]uint32, []byte) {
	var payload []byte
	offs := make([]uint32, 0, len(rows)+1)
	for _, r := range rows {
		offs = append(offs, uint32(len(payload)))
		payload = append(payload, r...)
	}
	offs = append(offs, uint32(len(payload)))
	return offs, payload
}

func TestSegmentRoundTrip(t *testing.T) {
	rows := [][]byte{
		[]byte("hello"),
		{}, // zero-length span (compacted-away row)
		[]byte("a much longer row payload with some bytes"),
		{0x00, 0xff, 0x80},
	}
	offs, payload := buildSegment(rows)
	enc := AppendSegment(nil, offs, payload)

	gotOffs, gotPayload, _, err := DecodeSegment(enc)
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	if len(gotOffs) != len(offs) {
		t.Fatalf("offs len = %d, want %d", len(gotOffs), len(offs))
	}
	for i := range offs {
		if gotOffs[i] != offs[i] {
			t.Fatalf("offs[%d] = %d, want %d", i, gotOffs[i], offs[i])
		}
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestSegmentEmptyRows(t *testing.T) {
	offs := []uint32{0}
	enc := AppendSegment(nil, offs, nil)
	gotOffs, gotPayload, _, err := DecodeSegment(enc)
	if err != nil {
		t.Fatalf("DecodeSegment(empty): %v", err)
	}
	if len(gotOffs) != 1 || len(gotPayload) != 0 {
		t.Fatalf("empty segment decoded to %d offs, %dB payload", len(gotOffs), len(gotPayload))
	}
}

// Every single-byte mutation of an encoded segment must be rejected — the
// CRC covers all preceding bytes including magic and header.
func TestSegmentRejectsMutations(t *testing.T) {
	offs, payload := buildSegment([][]byte{[]byte("row-one"), []byte("row-two-longer")})
	enc := AppendSegment(nil, offs, payload)
	for i := range enc {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), enc...)
			mut[i] ^= flip
			if _, _, _, err := DecodeSegment(mut); err == nil {
				t.Fatalf("mutation at byte %d (^%#x) not rejected", i, flip)
			} else if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("mutation at byte %d: error %v is not ErrSegmentCorrupt", i, err)
			}
		}
	}
	// Truncations at every length must be rejected too.
	for n := 0; n < len(enc); n++ {
		if _, _, _, err := DecodeSegment(enc[:n]); err == nil {
			t.Fatalf("truncation to %dB not rejected", n)
		}
	}
}

// The fault-in verifier accepts the sealed blob and rejects every single-
// byte mutation, truncation and extension of it, and a blob of another
// segment with a valid checksum.
func TestVerifySegment(t *testing.T) {
	offs, payload := buildSegment([][]byte{[]byte("row-one"), {}, []byte("row-two-longer")})
	enc := AppendSegment(nil, offs, payload)
	crc := binary.LittleEndian.Uint32(enc[len(enc)-4:])
	got, err := verifySegment(enc, offs, crc)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("verifySegment(sealed blob) = %q, %v", got, err)
	}
	reject := func(what string, blob []byte, offs []uint32, crc uint32) {
		t.Helper()
		if _, err := verifySegment(blob, offs, crc); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("%s: verifySegment error %v, want ErrSegmentCorrupt", what, err)
		}
	}
	for i := range enc {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), enc...)
			mut[i] ^= flip
			reject(fmt.Sprintf("byte %d ^%#x", i, flip), mut, offs, crc)
		}
	}
	for n := 0; n < len(enc); n++ {
		reject(fmt.Sprintf("truncation to %dB", n), enc[:n], offs, crc)
	}
	reject("extension", append(append([]byte(nil), enc...), 0), offs, crc)
	// Same rows, different split: the checksum is valid, the identity not.
	otherOffs, otherPayload := buildSegment([][]byte{[]byte("row-on"), []byte("e"), []byte("row-two-longer")})
	other := AppendSegment(nil, otherOffs, otherPayload)
	reject("other segment", other, offs, binary.LittleEndian.Uint32(other[len(other)-4:]))
	reject("wrong crc", enc, offs, crc^1)
	// A payload byte past the last span, under a recomputed checksum.
	long := append(append([]byte(nil), enc[:len(enc)-4]...), 'x')
	longCRC := crc32.ChecksumIEEE(long)
	reject("trailing payload byte", binary.LittleEndian.AppendUint32(long, longCRC), offs, longCRC)
}

func FuzzSegment(f *testing.F) {
	offs, payload := buildSegment([][]byte{[]byte("seed-row"), {}, []byte("another")})
	sealed := AppendSegment(nil, offs, payload)
	crc := binary.LittleEndian.Uint32(sealed[len(sealed)-4:])
	f.Add(sealed)
	f.Add([]byte("SQSG"))
	f.Add([]byte{})
	for _, i := range []int{0, 4, 5, 6, 8, len(sealed) - 5, len(sealed) - 1} {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x01
		f.Add(mut)
	}
	f.Add(sealed[:len(sealed)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fault-in verifier, holding the sealed segment's resident
		// identity, may accept data only when DecodeSegment accepts it and
		// decodes exactly that identity.
		gotOffs, gotPayload, gotCRC, err := DecodeSegment(data)
		if vp, verr := verifySegment(data, offs, crc); verr == nil {
			if err != nil {
				t.Fatalf("verifier accepted a blob DecodeSegment rejects: %v", err)
			}
			if !slices.Equal(gotOffs, offs) || gotCRC != crc || !bytes.Equal(vp, gotPayload) {
				t.Fatalf("verifier accepted a blob that decodes to another segment")
			}
		}
		// Decode must never panic, and any successful decode must
		// re-encode to bytes that decode identically (self-consistency) and
		// pass the verifier against its own identity.
		if err != nil {
			return
		}
		if _, err := verifySegment(data, gotOffs, gotCRC); err != nil {
			t.Fatalf("verifier rejected a valid segment against its own identity: %v", err)
		}
		re := AppendSegment(nil, gotOffs, gotPayload)
		reOffs, rePayload, reCRC, err := DecodeSegment(re)
		if err != nil {
			t.Fatalf("re-encode of valid segment failed: %v", err)
		}
		if gotCRC != reCRC {
			t.Fatalf("re-encode CRC %08x != original %08x", reCRC, gotCRC)
		}
		if len(reOffs) != len(gotOffs) || !bytes.Equal(rePayload, gotPayload) {
			t.Fatalf("re-encode round trip mismatch")
		}
	})
}
