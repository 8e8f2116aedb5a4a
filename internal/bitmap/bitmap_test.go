package bitmap

import (
	"math/rand"
	"reflect"
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

func TestMarshalRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw % 2000)
		rng := rand.New(rand.NewSource(seed))
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				b.Set(i)
			}
		}
		got, err := Unmarshal(b.Marshal())
		if err != nil {
			return false
		}
		if got.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got.Get(i) != b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
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

func TestUnmarshalCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte{0x01, 0x02}); err == nil {
		t.Fatal("Unmarshal must reject garbage")
	}
	// Valid snappy but inconsistent header.
	b := New(100)
	enc := b.Marshal()
	// Truncate the compressed payload.
	if _, err := Unmarshal(enc[:len(enc)-3]); err == nil {
		t.Fatal("Unmarshal must reject truncated payload")
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
