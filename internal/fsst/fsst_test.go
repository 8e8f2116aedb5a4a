package fsst

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// words is the vocabulary of the comment-like test strings.
var words = strings.Fields("furiously quickly carefully blithely slyly express pending regular " +
	"special ironic final bold even accounts deposits packages requests instructions " +
	"theodolites foxes pinto beans dependencies asymptotes sleep nag haggle wake")

// comments returns n comment-like strings of 10 to 43 bytes.
func comments(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		s := words[rng.Intn(len(words))]
		for len(s) < 10+rng.Intn(34) {
			s += " " + words[rng.Intn(len(words))]
		}
		out[i] = s
	}
	return out
}

// decode appends the decoding of one code string to dst, through DecodeSpans.
func decode(t *Table, dst, codes []byte) ([]byte, error) {
	return t.DecodeSpans(dst, codes, []uint32{0}, []uint32{uint32(len(codes))})
}

// referenceDecode decodes a code string a byte at a time.
func referenceDecode(t *Table, codes []byte) ([]byte, error) {
	var out []byte
	for i := 0; i < len(codes); i++ {
		switch c := int(codes[i]); {
		case c == Escape && i+1 < len(codes):
			i++
			out = append(out, codes[i])
		case c < t.Len():
			out = append(out, t.Symbol(c)...)
		default:
			return nil, ErrCorrupt
		}
	}
	return out, nil
}

// TestRoundTrip: every string — comment text, the empty string, bytes no
// symbol covers, text far longer than the sample's — encoded by the built
// table comes back exactly through the table parsed from its serialized form,
// by DecodeSpans (one string and all at once) and by the reference.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := comments(rng, 5000)
	vals = append(vals, "", "\x00\xff\xfe", strings.Repeat("furiously ", 20), strings.Repeat("z", 200),
		strings.Repeat("carefully final ", 1100), string([]byte{255, 255, 0, 'a'}))
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("\xff\xfe%d\xff", i)) // symbols that start with byte 255
	}
	table := Build(vals)
	if table.Len() == 0 || table.Len() > MaxSymbols {
		t.Fatalf("table of %d symbols", table.Len())
	}
	high := false
	for code := 0; code < table.Len(); code++ {
		high = high || table.Symbol(code)[0] == 255
	}
	if !high {
		t.Fatal("no symbol starts with byte 255: the case of the last byte value is not covered")
	}
	ser := table.AppendTable(nil)
	parsed, n, err := ParseTable(append(ser, 0xAB))
	if err != nil || n != len(ser) || !bytes.Equal(parsed.AppendTable(nil), ser) {
		t.Fatalf("table does not survive serialization: %v, %d of %d bytes", err, n, len(ser))
	}
	var src []byte
	var from, to []uint32
	raw := 0
	for _, v := range vals {
		from = append(from, uint32(len(src)))
		src = table.Encode(src, v)
		to = append(to, uint32(len(src)))
		raw += len(v)
		got, err := decode(parsed, []byte("hdr"), src[from[len(from)-1]:])
		if err != nil || string(got) != "hdr"+v {
			t.Fatalf("decode(Encode(%.40q)) = %.40q, %v", v, got, err)
		}
		if ref, err := referenceDecode(parsed, src[from[len(from)-1]:]); err != nil || string(ref) != v {
			t.Fatalf("reference decode of %.40q = %.40q, %v", v, ref, err)
		}
	}
	dec, err := parsed.DecodeSpans([]byte("hdr"), src, from, to)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range vals {
		if string(dec[from[k]:to[k]]) != v {
			t.Fatalf("DecodeSpans: value %d is %.40q, want %.40q", k, dec[from[k]:to[k]], v)
		}
	}
	if ratio := float64(raw) / float64(len(src)+len(ser)); ratio < 2 {
		t.Errorf("comment text compresses only %.2fx", ratio)
	}
}

// TestBuildIsDeterministic: the same strings give the same table, whatever
// came before.
func TestBuildIsDeterministic(t *testing.T) {
	vals := comments(rand.New(rand.NewSource(2)), 20000)
	first := Build(vals).AppendTable(nil)
	for i := 0; i < 3; i++ {
		Build(comments(rand.New(rand.NewSource(int64(i))), 100))
		if again := Build(vals).AppendTable(nil); !bytes.Equal(again, first) {
			t.Fatal("two builds over the same strings made different tables")
		}
	}
}

// TestMalformedInputs: a table of more than MaxSymbols symbols, a symbol of
// 0 or 9 bytes or cut short, a code past the table and an escape as the last
// byte are ErrCorrupt, never a panic.
func TestMalformedInputs(t *testing.T) {
	table := func(n int, l byte) []byte {
		b := binary.AppendUvarint(nil, uint64(n))
		for i := 0; i < n; i++ {
			b = append(b, l)
			b = append(b, bytes.Repeat([]byte{byte('a' + i%26)}, int(l))...)
		}
		return b
	}
	for name, b := range map[string][]byte{
		"256 symbols":       table(256, 2),
		"a symbol of 0":     table(1, 0),
		"a symbol of 9":     table(1, 9),
		"a symbol cut":      table(3, 4)[:10],
		"count cut":         {0x80},
		"empty":             nil,
		"count of 2^40":     binary.AppendUvarint(nil, 1<<40),
		"symbol length cut": table(2, 3)[:5],
	} {
		if _, _, err := ParseTable(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ParseTable error %v, want ErrCorrupt", name, err)
		}
	}
	if tb, _, err := ParseTable(table(255, 8)); err != nil || tb.Len() != 255 {
		t.Fatalf("a table of 255 8-byte symbols: %v", err)
	}
	tb, _, err := ParseTable(table(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for name, codes := range map[string][]byte{
		"code past the table":      {0, 1, 3},
		"escape as the last byte":  {0, Escape},
		"the escape code alone":    {Escape},
		"code 254 of a short list": {254, 0},
	} {
		if _, err := decode(tb, nil, codes); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeSpans error %v, want ErrCorrupt", name, err)
		}
		if _, err := referenceDecode(tb, codes); err == nil {
			t.Errorf("%s: the reference decodes it", name)
		}
	}
}

// TestUnbuiltTablesEscapeEverything: the zero Table, and a parsed one, which
// has symbols but no match index, escape every byte, and still round-trip.
func TestUnbuiltTablesEscapeEverything(t *testing.T) {
	parsed, _, err := ParseTable(Build(strings.Fields(strings.Repeat("ab ", 100))).AppendTable(nil))
	if err != nil || parsed.Len() == 0 {
		t.Fatalf("parsed table of %d symbols, %v", parsed.Len(), err)
	}
	for name, tb := range map[string]*Table{"zero": {}, "parsed": parsed} {
		codes := tb.Encode(nil, "ab\xff")
		if !bytes.Equal(codes, []byte{Escape, 'a', Escape, 'b', Escape, 0xff}) {
			t.Fatalf("%s: codes %v", name, codes)
		}
		if got, err := decode(tb, nil, codes); err != nil || string(got) != "ab\xff" {
			t.Fatalf("%s: %q, %v", name, got, err)
		}
	}
}

// FuzzDecode holds DecodeSpans to the byte-at-a-time reference on arbitrary
// code strings under a built table: the same bytes, or both an error.
func FuzzDecode(f *testing.F) {
	tb := Build(comments(rand.New(rand.NewSource(3)), 2000))
	f.Add(tb.Encode(nil, "carefully final deposits"))
	f.Add([]byte{Escape})
	f.Add([]byte{254, 0, Escape, 7})
	f.Fuzz(func(t *testing.T, codes []byte) {
		want, refErr := referenceDecode(tb, codes)
		got, err := decode(tb, nil, codes)
		if (err == nil) != (refErr == nil) || (err == nil && !bytes.Equal(got, want)) {
			t.Fatalf("DecodeSpans = %q, %v; reference %q, %v", got, err, want, refErr)
		}
	})
}

// BenchmarkDecodeSpans decodes 60,000 comment-like strings in one call. MB/s
// is of decoded bytes; ratio is decoded over code bytes.
func BenchmarkDecodeSpans(b *testing.B) {
	vals := comments(rand.New(rand.NewSource(4)), 60000)
	tb := Build(vals)
	var src []byte
	var from, to []uint32
	raw := 0
	for _, v := range vals {
		from = append(from, uint32(len(src)))
		src = tb.Encode(src, v)
		to = append(to, uint32(len(src)))
		raw += len(v)
	}
	f, e := make([]uint32, len(from)), make([]uint32, len(to))
	dst := make([]byte, 0, 2*raw+MaxDecodedLen(len(src)))
	b.SetBytes(int64(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(f, from)
		copy(e, to)
		var err error
		if dst, err = tb.DecodeSpans(dst[:0], src, f, e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(raw)/float64(len(src)), "ratio")
}
