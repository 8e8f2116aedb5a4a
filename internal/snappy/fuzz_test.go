package snappy

import (
	"bytes"
	"testing"
)

// FuzzSnappyDecode throws arbitrary bytes at Decode, differentially against
// the retained byte-at-a-time decoder: the two must accept exactly the same
// inputs and produce the same bytes, Decode must never panic or
// over-allocate, DecodeInto must give the same answer in a reused buffer,
// and anything accepted must survive an Encode→Decode round trip.
func FuzzSnappyDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x08, 'a', 'b', 'c'})
	f.Add(Encode([]byte("the quick brown fox jumps over the lazy dog")))
	f.Add(Encode(bytes.Repeat([]byte("abcd"), 64)))
	f.Add(Encode(priceLikeBlock(256)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})        // huge declared length
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x04})        // 1 GiB declared by 5 bytes
	f.Add([]byte{0x0a, 0x00, 'a', (9-4)<<2 | 1, 0x01}) // overlapping copy
	f.Add(Encode(commentLikeBlock(64)))
	for _, b := range edgeBlocks() {
		f.Add(b)
	}
	scratch := make([]byte, 0, 1<<12)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		ref, refErr := referenceDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode error %v, reference decoder error %v", err, refErr)
		}
		if err != nil {
			return // both rejected it cleanly: fine
		}
		if !bytes.Equal(dec, ref) {
			t.Fatalf("Decode and the reference decoder disagree on %d vs %d bytes", len(dec), len(ref))
		}
		into, err := DecodeInto(scratch, data)
		if err != nil || !bytes.Equal(into, ref) {
			t.Fatalf("DecodeInto: %v, %d bytes; want %d", err, len(into), len(ref))
		}
		if n, err := DecodedLen(data); err != nil || n != len(dec) {
			t.Fatalf("DecodedLen = %d, %v; Decode returned %d bytes", n, err, len(dec))
		}
		re, err := Decode(Encode(dec))
		if err != nil {
			t.Fatalf("re-decode of re-encoded output failed: %v", err)
		}
		if !bytes.Equal(dec, re) {
			t.Fatalf("round trip mismatch: %d vs %d bytes", len(dec), len(re))
		}
	})
}
