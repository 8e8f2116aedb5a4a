package snappy

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	enc := Encode(src)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode(%d bytes): %v", len(src), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip failed for %d bytes", len(src))
	}
}

func TestRoundTripBasic(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abc"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
		[]byte(strings.Repeat("abcd", 1000)),
		[]byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 100)),
		bytes.Repeat([]byte{0}, 1<<16),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 1000, 65535, 65536, 1 << 18} {
		// Incompressible random bytes.
		b := make([]byte, n)
		rng.Read(b)
		roundTrip(t, b)
		// Highly compressible: few distinct values.
		for i := range b {
			b[i] = byte(rng.Intn(3))
		}
		roundTrip(t, b)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(b []byte) bool {
		got, err := Decode(Encode(b))
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeHandCraftedVectors(t *testing.T) {
	cases := []struct {
		name string
		enc  []byte
		want []byte
	}{
		{
			name: "short literal",
			enc:  []byte{0x03, 0x02 << 2, 'a', 'b', 'c'},
			want: []byte("abc"),
		},
		{
			name: "overlapping copy1",
			// "a" then copy(offset=1, len=9): Snappy's RLE idiom.
			enc:  []byte{0x0a, 0x00, 'a', (9-4)<<2 | tagCopy1, 0x01},
			want: []byte("aaaaaaaaaa"),
		},
		{
			name: "copy2",
			// "ab" then copy(offset=2, len=4) via copy-2 element.
			enc:  []byte{0x06, 0x01 << 2, 'a', 'b', (4-1)<<2 | tagCopy2, 0x02, 0x00},
			want: []byte("ababab"),
		},
		{
			name: "empty",
			enc:  []byte{0x00},
			want: []byte{},
		},
	}
	for _, c := range cases {
		got, err := Decode(c.enc)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: got %q want %q", c.name, got, c.want)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                             // no preamble
		{0x05},                         // declared 5 bytes, no body
		{0x03, 0x02 << 2, 'a'},         // literal truncated
		{0x02, 0x00, 'a', 0x15, 0x05},  // copy offset beyond written output
		{0x01, (9 - 4) << 2 & 0xff, 1}, // copy before any output
		{0x01, 0x00, 'a', 0x00, 'b'},   // extra literal overruns declared len
		{0xff, 0xff, 0xff, 0xff, 0xff}, // absurd uvarint
		{0x04, tagCopy4, 1, 0, 0},      // copy4 truncated
		{0x04, 61 << 2, 0x01},          // 2-byte literal length truncated
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: Decode must fail", i)
		}
	}
}

func TestDecodedLen(t *testing.T) {
	enc := Encode(bytes.Repeat([]byte("x"), 12345))
	n, err := DecodedLen(enc)
	if err != nil || n != 12345 {
		t.Fatalf("DecodedLen = %d, %v; want 12345", n, err)
	}
	if _, err := DecodedLen(nil); err == nil {
		t.Fatal("DecodedLen of empty input must fail")
	}
}

func TestCompressionEffective(t *testing.T) {
	// Repetitive data must compress substantially; the paper relies on
	// column chunks reaching ratios up to ~63 (Fig. 6).
	data := bytes.Repeat([]byte("0.0400000"), 100000)
	enc := Encode(data)
	if ratio := float64(len(data)) / float64(len(enc)); ratio < 20 {
		t.Fatalf("repetitive data must compress at least 20x, got %.1fx", ratio)
	}
}

func TestIncompressibleExpandsWithinBound(t *testing.T) {
	b := make([]byte, 100000)
	rand.New(rand.NewSource(3)).Read(b)
	enc := Encode(b)
	if len(enc) > MaxEncodedLen(len(b)) {
		t.Fatalf("encoded %d exceeds MaxEncodedLen %d", len(enc), MaxEncodedLen(len(b)))
	}
}

func BenchmarkEncode1MB(b *testing.B) {
	data := []byte(strings.Repeat("SELECT l_extendedprice FROM lineitem; ", 1<<20/38))
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Encode(data)
	}
}

func BenchmarkDecode1MB(b *testing.B) {
	data := []byte(strings.Repeat("SELECT l_extendedprice FROM lineitem; ", 1<<20/38))
	enc := Encode(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodeLargeLiteralLengths(t *testing.T) {
	// Exercise the 2-, 3- and 4-byte literal length encodings directly.
	build := func(n int, hdr ...byte) []byte {
		enc := binaryAppendUvarint(nil, uint64(n))
		enc = append(enc, hdr...)
		for i := 0; i < n; i++ {
			enc = append(enc, byte(i))
		}
		return enc
	}
	// 61: 2-byte length (n-1 = 0x1234 -> n = 0x1235).
	n := 0x1235
	enc := build(n, 61<<2, byte(n-1), byte((n-1)>>8))
	got, err := Decode(enc)
	if err != nil || len(got) != n {
		t.Fatalf("2-byte literal: %d bytes, %v", len(got), err)
	}
	// 62: 3-byte length.
	n = 0x012345
	enc = build(n, 62<<2, byte(n-1), byte((n-1)>>8), byte((n-1)>>16))
	got, err = Decode(enc)
	if err != nil || len(got) != n {
		t.Fatalf("3-byte literal: %d bytes, %v", len(got), err)
	}
	// 63: 4-byte length.
	n = 0x0100005
	enc = build(n, 63<<2, byte(n-1), byte((n-1)>>8), byte((n-1)>>16), byte((n-1)>>24))
	got, err = Decode(enc)
	if err != nil || len(got) != n {
		t.Fatalf("4-byte literal: %d bytes, %v", len(got), err)
	}
}

func TestDecodeCopy4(t *testing.T) {
	// Hand-crafted copy-4 element: "ab" then copy(offset=2, len=6).
	enc := []byte{0x08, 0x01 << 2, 'a', 'b', (6-1)<<2 | tagCopy4, 2, 0, 0, 0}
	got, err := Decode(enc)
	if err != nil || string(got) != "abababab" {
		t.Fatalf("copy4: %q, %v", got, err)
	}
	// Bad copy4 offset.
	bad := []byte{0x08, 0x01 << 2, 'a', 'b', (6-1)<<2 | tagCopy4, 9, 0, 0, 0}
	if _, err := Decode(bad); err == nil {
		t.Fatal("copy4 with bad offset must fail")
	}
}

func TestDecodeRejectsHugeDeclaredLength(t *testing.T) {
	enc := binaryAppendUvarint(nil, 1<<62)
	if _, err := Decode(enc); err == nil {
		t.Fatal("absurd declared length must be rejected")
	}
	if _, err := DecodedLen(enc); err == nil {
		t.Fatal("DecodedLen must reject absurd lengths")
	}
}

func TestEncodeVeryLongMatch(t *testing.T) {
	// A 1KB run forces the >=68 branch of emitCopy repeatedly.
	data := bytes.Repeat([]byte{'z'}, 1024)
	data = append(data, []byte("tail-entropy-1234567890")...)
	roundTrip(t, data)
}

func binaryAppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// priceLikeBlock builds the plain page of a near-unique float64 column in the
// shape of lineitem's l_extendedprice (quantity x price in cents): the top
// bytes of neighbouring values repeat and the low ones do not, so Encode
// emits one short literal and one short copy per value — the element mix the
// decoder's 8- and 16-byte fast paths exist for.
func priceLikeBlock(values int) []byte {
	rng := rand.New(rand.NewSource(11))
	out := make([]byte, 0, 8*values)
	for i := 0; i < values; i++ {
		v := float64(1+rng.Intn(50)) * (900 + float64(rng.Intn(200000))/100)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// sparseBitmapBlock is a 60,000-row selection bitmap at ≈1%: long zero runs,
// which Encode turns into 64-byte copies at offset 1 (the overlapping case).
func sparseBitmapBlock() []byte {
	rng := rand.New(rand.NewSource(12))
	out := make([]byte, 7508)
	for i := 0; i < 600; i++ {
		out[8+rng.Intn(7500)] |= 1 << rng.Intn(8)
	}
	return out
}

func decodeCorpus() map[string][]byte {
	rng := rand.New(rand.NewSource(13))
	random := make([]byte, 100_000)
	rng.Read(random)
	return map[string][]byte{
		"price":  priceLikeBlock(60_000),
		"bitmap": sparseBitmapBlock(),
		"text":   []byte(strings.Repeat("SELECT l_extendedprice FROM lineitem; ", 1<<18/38)),
		"random": random,
		"short":  []byte("abcabcabcabcabcabcab"),
	}
}

// TestDecodeMatchesReference pins the wide-copy decoder to the byte-at-a-time
// one on every element mix the store produces, on truncations of each (which
// move the "16 readable bytes" boundary through every element), and with
// DecodeInto reusing a dirty buffer.
func TestDecodeMatchesReference(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xDB}, 1<<20)
	for name, block := range decodeCorpus() {
		enc := Encode(block)
		want, err := referenceDecode(enc)
		if err != nil || !bytes.Equal(want, block) {
			t.Fatalf("%s: reference decoder: %v", name, err)
		}
		got, err := Decode(enc)
		if err != nil || !bytes.Equal(got, block) {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		into, err := DecodeInto(dirty[:0], enc)
		if err != nil || !bytes.Equal(into, block) {
			t.Fatalf("%s: DecodeInto a dirty buffer: %v", name, err)
		}
		if len(block) > 0 && &into[0] != &dirty[0] {
			t.Fatalf("%s: DecodeInto did not reuse a buffer with enough capacity", name)
		}
		// Every prefix of the last 80 encoded bytes, and forty of the rest.
		step := len(enc)/40 + 1
		for cut := 0; cut < len(enc); cut++ {
			if cut < len(enc)-80 && cut%step != 0 {
				continue
			}
			_, refErr := referenceDecode(enc[:cut])
			_, err := Decode(enc[:cut])
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s cut at %d: Decode error %v, reference %v", name, cut, err, refErr)
			}
		}
	}
}

// TestDecodeRejectsImpossibleExpansion is the allocation-bomb regression: a
// block cannot decode to more than 22x its own size, so five bytes declaring
// 1 GiB are rejected from the header alone, before Decode allocates (it used
// to zero a 1 GiB slice first).
func TestDecodeRejectsImpossibleExpansion(t *testing.T) {
	bomb := binaryAppendUvarint(nil, 1<<30)
	if len(bomb) != 5 {
		t.Fatalf("bomb is %d bytes, want 5", len(bomb))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bomb)
	_, lenErr := DecodedLen(bomb)
	_, intoErr := DecodeInto(nil, bomb)
	runtime.ReadMemStats(&after)
	if err == nil || lenErr == nil || intoErr == nil {
		t.Fatalf("1 GiB declared by 5 bytes must be rejected: %v, %v, %v", err, lenErr, intoErr)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the bomb allocated %d bytes, want < 1 MiB", grew)
	}
	// The densest legal block still decodes: 64-byte copies at 3 bytes each.
	dense := Encode(bytes.Repeat([]byte{7}, 1<<16))
	if got, err := Decode(dense); err != nil || len(got) != 1<<16 {
		t.Fatalf("dense block: %d bytes, %v", len(got), err)
	}
}

func benchDecode(b *testing.B, block []byte, decode func(dst, src []byte) ([]byte, error)) {
	enc := Encode(block)
	buf := make([]byte, len(block))
	b.SetBytes(int64(len(block)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(buf, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnappyDecode times the decoder on a near-unique float page, a
// block of long zero runs (a sparse bitmap's words) and text, each against
// the byte-at-a-time reference.
func BenchmarkSnappyDecode(b *testing.B) {
	corpus := decodeCorpus()
	for _, name := range []string{"price", "bitmap", "text"} {
		block := corpus[name]
		b.Run(name, func(b *testing.B) { benchDecode(b, block, DecodeInto) })
		b.Run(name+"-ref", func(b *testing.B) {
			benchDecode(b, block, func(_, src []byte) ([]byte, error) { return referenceDecode(src) })
		})
	}
}
