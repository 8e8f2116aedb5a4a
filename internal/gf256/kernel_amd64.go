//go:build amd64 && !purego

package gf256

// useAVX2 gates the VPSHUFB body. AVX2 needs both the CPU (CPUID.7:EBX
// bit 5) and the OS, which must save the YMM state (CPUID.1:ECX OSXSAVE,
// then XGETBV's XCR0 bits 1–2), so it is probed once at startup.
var useAVX2 = hasAVX2()

//go:noescape
func hasAVX2() bool

// mulAVX2 sets out[r][at:at+n] = Σ_j c[r][j]·in[j][lo:lo+n] for the 1–4
// rows of out, whose split tables are tab. n must be a positive multiple
// of 32.
//
//go:noescape
func mulAVX2(tab []byte, in, out [][]byte, lo, at, n int)
