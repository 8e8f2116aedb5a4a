package gf256

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddIsXOR(t *testing.T) {
	if Add(0x53, 0xca) != 0x53^0xca {
		t.Fatal("Add must be XOR")
	}
}

func TestMulKnownValues(t *testing.T) {
	// Known products in the 0x11d field.
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 21, 0},
		{1, 1, 1},
		{2, 2, 4},
		{2, 128, 29}, // 2*128 overflows and reduces by 0x1d
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistributivity(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%#x) = %#x is not an inverse", a, inv)
		}
	}
}

func TestInverseOfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	Inv(0)
}

// TestGeneratorOrder: the field's generator 2 has order 255 — its powers,
// taken through Mul, visit every nonzero element once before returning to 1.
// The log/exp tables Mul and Inv read are built on this.
func TestGeneratorOrder(t *testing.T) {
	seen := make(map[byte]bool)
	x := byte(1)
	for e := 0; e < 255; e++ {
		if seen[x] {
			t.Fatalf("2^%d = %#x repeats an earlier power", e, x)
		}
		seen[x] = true
		x = Mul(x, 2)
	}
	if x != 1 {
		t.Fatalf("2^255 = %#x, want 1", x)
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	src := []byte{0, 1, 2, 3, 100, 200, 255, 17}
	dst := make([]byte, len(src))
	for c := 0; c < 256; c++ {
		MulSlice(byte(c), src, dst)
		for i := range src {
			if dst[i] != Mul(byte(c), src[i]) {
				t.Fatalf("MulSlice(%d) mismatch at %d", c, i)
			}
		}
	}
}

func TestMulAddSliceMatchesScalar(t *testing.T) {
	src := []byte{0, 1, 2, 3, 100, 200, 255, 17}
	for c := 0; c < 256; c++ {
		dst := []byte{9, 8, 7, 6, 5, 4, 3, 2}
		want := make([]byte, len(dst))
		for i := range dst {
			want[i] = dst[i] ^ Mul(byte(c), src[i])
		}
		MulAddSlice(byte(c), src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulAddSlice(%d) mismatch: got %v want %v", c, dst, want)
		}
	}
}

func TestMatrixIdentityMul(t *testing.T) {
	m := NewMatrix(3, 3)
	vals := []byte{1, 2, 3, 4, 5, 6, 7, 8, 10}
	copy(m.Data, vals)
	p := Identity(3).Mul(m)
	if !bytes.Equal(p.Data, vals) {
		t.Fatal("I*M must equal M")
	}
	p = m.Mul(Identity(3))
	if !bytes.Equal(p.Data, vals) {
		t.Fatal("M*I must equal M")
	}
}

func TestMatrixInvert(t *testing.T) {
	m := NewMatrix(3, 3)
	copy(m.Data, []byte{1, 2, 3, 4, 5, 6, 7, 8, 10})
	inv, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	prod := m.Mul(inv)
	if !bytes.Equal(prod.Data, Identity(3).Data) {
		t.Fatalf("M * M^-1 != I: %v", prod.Data)
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []byte{1, 2, 1, 2}) // duplicate rows
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestMatrixInvertRandom(t *testing.T) {
	f := func(data [16]byte) bool {
		m := NewMatrix(4, 4)
		copy(m.Data, data[:])
		inv, err := m.Invert()
		if err != nil {
			return true // singular matrices are allowed to fail
		}
		return bytes.Equal(m.Mul(inv).Data, Identity(4).Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubMatrix(t *testing.T) {
	m := NewMatrix(3, 2)
	copy(m.Data, []byte{1, 2, 3, 4, 5, 6})
	s := m.SubMatrix([]int{2, 0})
	if !bytes.Equal(s.Data, []byte{5, 6, 1, 2}) {
		t.Fatalf("SubMatrix wrong: %v", s.Data)
	}
}

func TestVandermondeShape(t *testing.T) {
	v := Vandermonde(5, 3)
	for r := 0; r < 5; r++ {
		if v.At(r, 0) != 1 {
			t.Fatalf("column 0 must be all ones, row %d is %d", r, v.At(r, 0))
		}
	}
	if v.At(3, 1) != 3 {
		t.Fatalf("entry (3,1) must be 3, got %d", v.At(3, 1))
	}
	if v.At(3, 2) != Mul(3, 3) {
		t.Fatalf("entry (3,2) must be 3^2")
	}
}

func BenchmarkMulAddSlice(b *testing.B) {
	src := make([]byte, 1<<20)
	dst := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x1f, src, dst)
	}
}
