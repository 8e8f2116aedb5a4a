package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestNibbleTableMatchesMul checks every (coefficient, operand) pair: the
// scalar split-table path and the SWAR word path must both reproduce the
// log/exp Mul exactly.
func TestNibbleTableMatchesMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		tab := NewNibbleTable(byte(c))
		if tab.Coefficient() != byte(c) {
			t.Fatalf("Coefficient() = %d, want %d", tab.Coefficient(), c)
		}
		for b := 0; b < 256; b++ {
			want := Mul(byte(c), byte(b))
			if got := tab.lo[b&0x0f] ^ tab.hi[b>>4]; got != want {
				t.Fatalf("split table [%d][%d] = %d, want %d", c, b, got, want)
			}
			if got := byte(tab.mulWord(uint64(b))); got != want {
				t.Fatalf("mulWord [%d][%d] = %d, want %d", c, b, got, want)
			}
		}
	}
}

// TestNibbleLanesIndependent fills all 8 lanes of a word with distinct
// random bytes and checks each lane multiplies independently — the carry
// containment the SWAR mask-multiply relies on.
func TestNibbleLanesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		c := byte(rng.Intn(256))
		tab := NewNibbleTable(c)
		w := rng.Uint64()
		got := tab.mulWord(w)
		for lane := 0; lane < 8; lane++ {
			in := byte(w >> (8 * lane))
			want := Mul(c, in)
			if out := byte(got >> (8 * lane)); out != want {
				t.Fatalf("c=%#02x word=%#016x lane %d: got %#02x, want %#02x",
					c, w, lane, out, want)
			}
		}
	}
}

// TestNibbleSlicesMatchNaive drives MulAdd and Mul against the retained
// byte-wise MulAddSlice/MulSlice across random coefficients and lengths,
// including the sub-16-byte tails that fall through to the split tables.
func TestNibbleSlicesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(c byte, raw []byte) bool {
		src := raw
		if len(src) == 0 {
			src = []byte{byte(rng.Intn(256))}
		}
		tab := NewNibbleTable(c)

		dstA := make([]byte, len(src))
		dstB := make([]byte, len(src))
		rng.Read(dstA)
		copy(dstB, dstA)
		tab.MulAdd(src, dstA)
		MulAddSlice(c, src, dstB)
		if !bytes.Equal(dstA, dstB) {
			return false
		}

		tab.Mul(src, dstA)
		MulSlice(c, src, dstB)
		return bytes.Equal(dstA, dstB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNibbleSWARMatchesNaive exercises the portable SWAR bulk path
// directly — on amd64 MulAdd/Mul dispatch to the PSHUFB kernel, so the
// fallback needs its own drive-through.
func TestNibbleSWARMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	f := func(c byte, raw []byte) bool {
		src := raw
		if len(src) == 0 {
			src = []byte{byte(rng.Intn(256))}
		}
		tab := NewNibbleTable(c)
		if tab.c == 0 || tab.c == 1 {
			c, tab = 0x8e, NewNibbleTable(0x8e) // SWAR paths assume c ≥ 2
		}

		dstA := make([]byte, len(src))
		dstB := make([]byte, len(src))
		rng.Read(dstA)
		copy(dstB, dstA)
		tab.mulAddSWAR(src, dstA, 0)
		MulAddSlice(c, src, dstB)
		if !bytes.Equal(dstA, dstB) {
			return false
		}

		tab.mulSWAR(src, dstA, 0)
		MulSlice(c, src, dstB)
		return bytes.Equal(dstA, dstB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNibbleTails pins the unroll boundaries: every length around the
// 16-byte and 8-byte steps must agree with the naive kernel.
func TestNibbleTails(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := NewNibbleTable(0x8e)
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 1000} {
		src := make([]byte, n)
		dst := make([]byte, n)
		want := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		copy(want, dst)
		tab.MulAdd(src, dst)
		MulAddSlice(0x8e, src, want)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulAdd length %d mismatch", n)
		}
		tab.Mul(src, dst)
		MulSlice(0x8e, src, want)
		if !bytes.Equal(dst, want) {
			t.Fatalf("Mul length %d mismatch", n)
		}
	}
}

func TestXorSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := make([]byte, n)
		for i := range want {
			want[i] = src[i] ^ dst[i]
		}
		XorSlice(src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("XorSlice length %d mismatch", n)
		}
	}
}

// BenchmarkGF256MulAdd compares the naive byte-wise kernel, the nibble
// kernel and its coefficient-1 XOR fast path on a 64 KiB buffer (a typical
// encode sub-range).
func BenchmarkGF256MulAdd(b *testing.B) {
	const size = 64 << 10
	src := make([]byte, size)
	dst := make([]byte, size)
	rand.New(rand.NewSource(14)).Read(src)
	const coeff = 0x8e

	b.Run("naive", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MulAddSlice(coeff, src, dst)
		}
	})
	for _, k := range []struct {
		name string
		tab  *NibbleTable
	}{{"nibble", NewNibbleTable(coeff)}, {"xor", NewNibbleTable(1)}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.tab.MulAdd(src, dst)
			}
		})
	}
}
