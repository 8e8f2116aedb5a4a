//go:build amd64 && !purego

#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state enabled
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// ROW folds the split input (Y5 low nibbles, Y6 high nibbles) into one
// output row's accumulator through the row's two 32-byte tables at R12+lo
// and R12+hi.
#define ROW(lo, hi, acc) \
	VMOVDQU lo(R12), Y7;  \
	VMOVDQU hi(R12), Y8;  \
	VPSHUFB Y5, Y7, Y7;   \
	VPSHUFB Y6, Y8, Y8;   \
	VPXOR   Y7, acc, acc; \
	VPXOR   Y8, acc, acc

// func mulAVX2(tab []byte, in, out [][]byte, lo, at, n int)
//
// One 32-byte column per iteration: every input is loaded (at R9) and split
// once, and folded into the 1–4 accumulators Y0–Y3, which are stored once
// (at AX).
TEXT ·mulAVX2(SB), NOSPLIT, $0-96
	MOVQ tab_base+0(FP), SI
	MOVQ in_base+24(FP), DX
	MOVQ in_len+32(FP), CX
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), R8
	MOVQ lo+72(FP), R9
	MOVQ n+88(FP), R10
	ADDQ R9, R10           // end of the input range
	MOVQ R8, R14
	SHLQ $6, R14           // table bytes per input: 64 per row
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ at+80(FP), AX

column:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  SI, R12
	MOVQ  DX, R13
	MOVQ  CX, BX

input:
	MOVQ    (R13), R11
	VMOVDQU (R11)(R9*1), Y4
	VPSRLQ  $4, Y4, Y6
	VPAND   Y15, Y4, Y5
	VPAND   Y15, Y6, Y6
	ROW(0, 32, Y0)
	CMPQ    R8, $1
	JE      next
	ROW(64, 96, Y1)
	CMPQ    R8, $2
	JE      next
	ROW(128, 160, Y2)
	CMPQ    R8, $3
	JE      next
	ROW(192, 224, Y3)

next:
	ADDQ R14, R12
	ADDQ $24, R13
	DECQ BX
	JNZ  input

	MOVQ    (DI), R11
	VMOVDQU Y0, (R11)(AX*1)
	CMPQ    R8, $1
	JE      stored
	MOVQ    24(DI), R11
	VMOVDQU Y1, (R11)(AX*1)
	CMPQ    R8, $2
	JE      stored
	MOVQ    48(DI), R11
	VMOVDQU Y2, (R11)(AX*1)
	CMPQ    R8, $3
	JE      stored
	MOVQ    72(DI), R11
	VMOVDQU Y3, (R11)(AX*1)

stored:
	ADDQ $32, R9
	ADDQ $32, AX
	CMPQ R9, R10
	JB   column
	VZEROUPPER
	RET
