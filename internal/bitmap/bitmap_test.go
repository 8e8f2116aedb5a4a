package bitmap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// model is a reference implementation over a bool slice.
type model []bool

func (m model) count() int {
	c := 0
	for _, v := range m {
		if v {
			c++
		}
	}
	return c
}

func TestBasicOps(t *testing.T) {
	b := New(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatal("fresh bitmap must be empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get wrong")
	}
	if got := b.Indexes(); !reflect.DeepEqual(got, []int{0, 64, 129}) {
		t.Fatalf("Indexes = %v", got)
	}
}

func TestNewFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		b := NewFull(n)
		if b.Count() != n {
			t.Fatalf("NewFull(%d).Count() = %d", n, b.Count())
		}
		if n > 0 && b.Selectivity() != 1 {
			t.Fatalf("full bitmap selectivity must be 1")
		}
	}
}

func TestNotClearsTail(t *testing.T) {
	b := New(70)
	b.Not()
	if b.Count() != 70 {
		t.Fatalf("Not of empty must set exactly n bits, got %d", b.Count())
	}
	b.Not()
	if b.Count() != 0 {
		t.Fatal("double Not must restore")
	}
}

func TestAndOrAgainstModel(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := New(n), New(n)
		ma, mb := make(model, n), make(model, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
				ma[i] = true
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
				mb[i] = true
			}
		}
		andB := a.Clone()
		if err := andB.And(b); err != nil {
			return false
		}
		orB := a.Clone()
		if err := orB.Or(b); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if andB.Get(i) != (ma[i] && mb[i]) {
				return false
			}
			if orB.Get(i) != (ma[i] || mb[i]) {
				return false
			}
		}
		return andB.Count() <= a.Count() && orB.Count() >= a.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLengthMismatch(t *testing.T) {
	a, b := New(10), New(20)
	if err := a.And(b); err == nil {
		t.Fatal("And must reject mismatched lengths")
	}
	if err := a.Or(b); err == nil {
		t.Fatal("Or must reject mismatched lengths")
	}
}

func TestSelectivity(t *testing.T) {
	b := New(200)
	for i := 0; i < 20; i++ {
		b.Set(i * 10)
	}
	if s := b.Selectivity(); s != 0.1 {
		t.Fatalf("Selectivity = %v, want 0.1", s)
	}
	if New(0).Selectivity() != 0 {
		t.Fatal("empty bitmap selectivity must be 0")
	}
}

func TestForEachMatchesIndexes(t *testing.T) {
	b := New(300)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		if rng.Intn(3) == 0 {
			b.Set(i)
		}
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, b.Indexes()) {
		t.Fatal("ForEach must visit the same positions as Indexes")
	}
}

// densityBitmap returns an n-bit bitmap of the named density: a fixed
// pattern for the empty, one-bit and full cases, seeded draws for the rest.
func densityBitmap(n int, density string, rng *rand.Rand) *Bitmap {
	switch density {
	case "empty":
		return New(n)
	case "full":
		return NewFull(n)
	case "one bit":
		b := New(n)
		if n > 0 {
			b.Set(n / 2)
		}
		return b
	}
	p := map[string]float64{"0.1%": 0.001, "1%": 0.01, "50%": 0.5, "99%": 0.99}[density]
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
		}
	}
	return b
}

var (
	codecLengths   = []int{0, 1, 63, 64, 65, 60000}
	codecDensities = []string{"empty", "one bit", "0.1%", "1%", "50%", "99%", "full"}
)

// naiveForms encodes b in each wire form, a bit at a time: the reference
// Marshal's pick is checked against.
func naiveForms(b *Bitmap) [3][]byte {
	n := b.Len()
	var out [3][]byte
	for f := range out {
		out[f] = binary.AppendUvarint([]byte{byte(f)}, uint64(n))
	}
	for wi := 0; wi < (n+63)/64; wi++ {
		var w uint64
		for i := wi * 64; i < n && i < wi*64+64; i++ {
			if b.Get(i) {
				w |= 1 << (i % 64)
			}
		}
		out[formWords] = binary.LittleEndian.AppendUint64(out[formWords], w)
	}
	run, set, next := 0, false, 0
	for i := 0; i < n; i++ {
		if b.Get(i) != set {
			out[formRuns] = binary.AppendUvarint(out[formRuns], uint64(run))
			run, set = 0, !set
		}
		run++
		if b.Get(i) {
			out[formGaps] = binary.AppendUvarint(out[formGaps], uint64(i-next))
			next = i + 1
		}
	}
	out[formRuns] = binary.AppendUvarint(out[formRuns], uint64(run))
	return out
}

// TestMarshalRoundTrip: for every length and density, Marshal writes exactly
// the smallest of the three forms (the earliest on a tie) and Unmarshal gives
// back the same bits.
func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range codecLengths {
		for _, density := range codecDensities {
			b := densityBitmap(n, density, rng)
			enc := b.Marshal()
			forms := naiveForms(b)
			want := forms[formWords]
			for _, f := range forms[1:] {
				if len(f) < len(want) {
					want = f
				}
			}
			if !bytes.Equal(enc, want) {
				t.Errorf("%d rows, %s: Marshal wrote form %d in %d bytes, want form %d in %d (words %d, runs %d, gaps %d)",
					n, density, enc[0], len(enc), want[0], len(want), len(forms[0]), len(forms[1]), len(forms[2]))
				continue
			}
			got, err := Unmarshal(enc, n)
			if err != nil {
				t.Fatalf("%d rows, %s: %v", n, density, err)
			}
			if got.Len() != n || !reflect.DeepEqual(got.Words(), b.Words()) {
				t.Fatalf("%d rows, %s: round trip changed the bits", n, density)
			}
		}
	}
	if enc := NewFull(60000).Marshal(); len(enc) > 8 {
		t.Fatalf("a full 60,000-row bitmap marshals to %d bytes, want at most 8", len(enc))
	}
}

func TestMarshalCompresses(t *testing.T) {
	// A sparse bitmap over many rows must shrink dramatically on the wire.
	b := New(1 << 20)
	for i := 0; i < 100; i++ {
		b.Set(i * 10000)
	}
	enc := b.Marshal()
	if len(enc) > 1<<14 {
		t.Fatalf("sparse bitmap must compress below 16KB, got %d", len(enc))
	}
}

// TestUnmarshalCorrupt: one input per way a bitmap can be refused.
func TestUnmarshalCorrupt(t *testing.T) {
	// head is a form byte and a declared length of 100 rows.
	head := func(form byte) []byte { return binary.AppendUvarint([]byte{form}, 100) }
	varints := func(form byte, vs ...uint64) []byte {
		out := head(form)
		for _, v := range vs {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	tail := binary.LittleEndian.AppendUint64(head(formWords)[:2:2], 1)
	tail = binary.LittleEndian.AppendUint64(tail, 1<<36) // bit 100
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty input", nil, "empty input"},
		{"truncated length", []byte{formRuns, 0x80}, "truncated length"},
		{"unknown form", append(head(3), 0), "unknown form"},
		{"truncated varint", append(head(formGaps), 5, 0x80), "truncated varint"},
		{"gap past the end", varints(formGaps, 3, 96), "at or past row 100"},
		{"gap at the end", varints(formGaps, 100), "at or past row 100"},
		{"runs short of the length", varints(formRuns, 10, 20), "runs sum to 30"},
		{"runs past the length", varints(formRuns, 10, 91), "runs exceed"},
		{"empty run", varints(formRuns, 10, 0, 90), "empty run"},
		{"wrong raw word count", append(head(formWords), make([]byte, 8)...), "8 bytes of words"},
		{"raw bit past the end", tail, "at or past row 100"},
		{"declared length other than the rows expected", NewFull(99).Marshal(), "declares 99 rows"},
		{"declared length of 2^40", binary.AppendUvarint(binary.AppendUvarint([]byte{formRuns}, 1<<40), 1<<40), "declares 1099511627776 rows"},
	} {
		if _, err := Unmarshal(c.data, 100); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Unmarshal(%x) = %v, want an error saying %q", c.name, c.data, err, c.want)
		}
	}
	if _, err := Unmarshal(New(0).Marshal(), -1); err == nil {
		t.Error("Unmarshal accepted a negative row count")
	}
	// The valid neighbours of those cases are accepted.
	for _, data := range [][]byte{varints(formGaps, 3, 95), varints(formRuns, 10, 90), varints(formRuns, 0, 100), head(formGaps)} {
		if _, err := Unmarshal(data, 100); err != nil {
			t.Errorf("Unmarshal refused %x: %v", data, err)
		}
	}
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		if !NewFull(n).Full() {
			t.Errorf("NewFull(%d) is not Full", n)
		}
		if n == 0 {
			continue
		}
		if New(n).Full() {
			t.Errorf("New(%d) is Full", n)
		}
		for _, i := range []int{0, n / 2, n - 1} {
			b := NewFull(n)
			b.words[i/64] &^= 1 << (i % 64)
			if b.Full() {
				t.Errorf("%d rows, bit %d clear: Full", n, i)
			}
		}
	}
}

func BenchmarkAnd(b *testing.B) {
	x, y := NewFull(1<<20), NewFull(1<<20)
	b.SetBytes(1 << 17)
	for i := 0; i < b.N; i++ {
		if err := x.And(y); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSetRangeAgainstSet(t *testing.T) {
	const n = 300
	for _, r := range [][2]int{{0, 0}, {5, 5}, {0, 1}, {63, 64}, {63, 65}, {64, 128}, {1, 299}, {0, 300}, {130, 131}, {127, 257}, {7, 3}} {
		got, want := New(n), New(n)
		got.SetRange(r[0], r[1])
		for i := r[0]; i < r[1]; i++ {
			want.Set(i)
		}
		if !reflect.DeepEqual(got.Indexes(), want.Indexes()) {
			t.Fatalf("SetRange(%d, %d) set %v", r[0], r[1], got.Indexes())
		}
	}
	b := New(130)
	b.Words()[1] = 1 << 3 // bit 67, through the word view
	if !b.Get(67) || b.Count() != 1 || len(b.Words()) != 3 {
		t.Fatalf("Words does not view the bitmap's own bits: %v", b.Indexes())
	}
}

// BenchmarkMarshal encodes and decodes a 60,000-row bitmap, a row group of
// the benchmark's lineitem, at each density of TestMarshalRoundTrip.
func BenchmarkMarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, density := range codecDensities {
		bm := densityBitmap(60000, density, rng)
		b.Run(density, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				enc := bm.Marshal()
				if _, err := Unmarshal(enc, bm.Len()); err != nil {
					b.Fatal(err)
				}
				size = len(enc)
			}
			b.ReportMetric(float64(size), "wire-B")
		})
	}
}
