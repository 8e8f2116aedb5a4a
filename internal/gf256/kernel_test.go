package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// naiveMatrixMul is the oracle: out[r] = Σ_j c[r][j]·in[j] through the
// log/exp MulAddSlice.
func naiveMatrixMul(coeffs, in [][]byte, lo, hi int) [][]byte {
	out := make([][]byte, len(coeffs))
	for r, row := range coeffs {
		out[r] = make([]byte, hi-lo)
		for j, c := range row {
			MulAddSlice(c, in[j][lo:hi], out[r])
		}
	}
	return out
}

// forBothBodies runs f with the AVX2 body enabled where the CPU has it, and
// again with every range forced through the SWAR body.
func forBothBodies(t *testing.T, f func(t *testing.T)) {
	t.Run("native", f)
	prev := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = prev }()
	t.Run("swar", f)
}

// TestMatrixKernelMatchesNaive drives the fused kernel against the oracle:
// 1–8 output rows (one and two register groups), 1–12 inputs, every tail
// length 0–31 past whole 32-byte columns, and shards that are unaligned
// sub-slices of larger buffers, with an input range that starts mid-shard
// and lands at another offset of the outputs. Bytes outside the output
// range must be left alone.
func TestMatrixKernelMatchesNaive(t *testing.T) {
	forBothBodies(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for rows := 1; rows <= 8; rows++ {
			for tail := 0; tail < 32; tail++ {
				cols := 1 + rng.Intn(12)
				size := 32*rng.Intn(5) + tail
				if size == 0 {
					size = 32
				}
				lo, at := rng.Intn(3)*8, rng.Intn(20)
				coeffs := make([][]byte, rows)
				for r := range coeffs {
					coeffs[r] = make([]byte, cols)
					rng.Read(coeffs[r])
				}
				in := make([][]byte, cols)
				for j := range in {
					buf := make([]byte, lo+size+7)
					rng.Read(buf)
					skew := 1 + rng.Intn(7)
					in[j] = buf[skew : skew+lo+size]
				}
				out := make([][]byte, rows)
				before := make([][]byte, rows)
				for r := range out {
					buf := make([]byte, at+size+5)
					rng.Read(buf)
					out[r] = buf[3:]
					before[r] = bytes.Clone(out[r])
				}
				NewMatrixKernel(coeffs).Mul(in, lo, lo+size, out, at)
				want := naiveMatrixMul(coeffs, in, lo, lo+size)
				for r := range out {
					if !bytes.Equal(out[r][at:at+size], want[r]) {
						t.Fatalf("%d rows × %d inputs, range [%d,%d) at %d: row %d differs", rows, cols, lo, lo+size, at, r)
					}
					if !bytes.Equal(out[r][:at], before[r][:at]) || !bytes.Equal(out[r][at+size:], before[r][at+size:]) {
						t.Fatalf("%d rows: row %d written outside [%d,%d)", rows, r, at, at+size)
					}
				}
			}
		}
	})
}

// TestMatrixKernelEveryCoefficient multiplies every byte value by every
// coefficient, in both bodies: one row per coefficient in groups of four, all
// 256 operands in one shard.
func TestMatrixKernelEveryCoefficient(t *testing.T) {
	forBothBodies(t, func(t *testing.T) {
		src := make([]byte, 256)
		for i := range src {
			src[i] = byte(i)
		}
		coeffs := make([][]byte, 256)
		out := make([][]byte, 256)
		for c := range coeffs {
			coeffs[c] = []byte{byte(c)}
			out[c] = make([]byte, 256)
		}
		NewMatrixKernel(coeffs).Mul([][]byte{src}, 0, 256, out, 0)
		for c := range out {
			for b := range src {
				if want := Mul(byte(c), byte(b)); out[c][b] != want {
					t.Fatalf("%#02x·%#02x = %#02x, want %#02x", c, b, out[c][b], want)
				}
			}
		}
	})
}

// BenchmarkMatrixKernel measures RS(9,6)-shaped and RS(14,10)-shaped parity
// products over a 32 KiB range (one erasure sub-stripe), both bodies,
// against the oracle. Throughput counts input bytes.
func BenchmarkMatrixKernel(b *testing.B) {
	const size = 32 << 10
	for _, shape := range []struct{ rows, cols int }{{3, 6}, {4, 10}} {
		rng := rand.New(rand.NewSource(22))
		coeffs := make([][]byte, shape.rows)
		out := make([][]byte, shape.rows)
		for r := range coeffs {
			coeffs[r] = make([]byte, shape.cols)
			rng.Read(coeffs[r])
			out[r] = make([]byte, size)
		}
		in := make([][]byte, shape.cols)
		for j := range in {
			in[j] = make([]byte, size)
			rng.Read(in[j])
		}
		m := NewMatrixKernel(coeffs)
		name := fmt.Sprintf("%dx%d", shape.rows, shape.cols)
		run := func(b *testing.B, avx2 bool) {
			prev := useAVX2
			useAVX2 = useAVX2 && avx2
			defer func() { useAVX2 = prev }()
			b.SetBytes(int64(shape.cols * size))
			for i := 0; i < b.N; i++ {
				m.Mul(in, 0, size, out, 0)
			}
		}
		b.Run(name+"/native", func(b *testing.B) { run(b, true) })
		b.Run(name+"/swar", func(b *testing.B) { run(b, false) })
		b.Run(name+"/naive", func(b *testing.B) {
			b.SetBytes(int64(shape.cols * size))
			for i := 0; i < b.N; i++ {
				naiveMatrixMul(coeffs, in, 0, size)
			}
		})
	}
}
