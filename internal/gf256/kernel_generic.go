//go:build !amd64 || purego

package gf256

// useAVX2 is false off amd64 (and under the purego tag): every range runs
// the SWAR body.
var useAVX2 = false

func mulAVX2(tab []byte, in, out [][]byte, lo, at, n int) {
	panic("gf256: AVX2 kernel called without AVX2")
}
