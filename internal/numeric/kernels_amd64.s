//go:build amd64 && !race

#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// ROW loads the row index at off(R8) into reg as a pointer to that row:
// data base (SI) + index * row bytes (R10). An index that is not below
// the row count (R14) jumps to bad; the compare is unsigned, and the
// index is sign-extended first, so a negative index fails as well.
#define ROW(off, reg) MOVLQSX off(R8), reg; CMPQ reg, R14; JAE bad; IMULQ R10, reg; ADDQ SI, reg

// func sumRowsAVX2(dst, data []float32, rows []int32, nrows int) (ok bool)
//
// Every lane computes dst + a + b + c + d left to right, with a VADDPS
// (or, in the tail, VADDSS) rounding after each addition: the same
// binary32 additions, in the same order, as the Go loop in SumRows. A
// four-row pass checks all four indices before it reads any row.
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-81
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R10
	SHLQ $2, R10                // R10: row bytes
	MOVQ R10, R11
	ANDQ $~31, R11              // R11: bytes covered by whole vectors
	MOVQ data_base+24(FP), SI
	MOVQ rows_base+48(FP), R8   // R8: next row index
	MOVQ rows_len+56(FP), BX
	MOVQ BX, R9
	ANDQ $~3, R9
	LEAQ (R8)(R9*4), R9         // R9: end of the four-row passes
	LEAQ (R8)(BX*4), BX         // BX: end of the row list
	MOVQ nrows+72(FP), R14      // R14: row count

	// dst = 0
	VXORPS Y0, Y0, Y0
	XORQ AX, AX
	TESTQ R11, R11
	JZ zerotail
zerovec:
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R11
	JB zerovec
zerotail:
	CMPQ AX, R10
	JAE quad
	MOVL $0, (DI)(AX*1)
	ADDQ $4, AX
	JMP zerotail

	// dst = dst + a + b + c + d, four rows per pass
quad:
	CMPQ R8, R9
	JAE single
	ROW(0, R12)
	ROW(4, R13)
	ROW(8, DX)
	ROW(12, CX)
	ADDQ $16, R8
	XORQ AX, AX
	TESTQ R11, R11
	JZ quadtail
quadvec:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS (R12)(AX*1), Y0, Y0
	VADDPS (R13)(AX*1), Y0, Y0
	VADDPS (DX)(AX*1), Y0, Y0
	VADDPS (CX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R11
	JB quadvec
quadtail:
	CMPQ AX, R10
	JAE quad
	VMOVSS (DI)(AX*1), X0
	VADDSS (R12)(AX*1), X0, X0
	VADDSS (R13)(AX*1), X0, X0
	VADDSS (DX)(AX*1), X0, X0
	VADDSS (CX)(AX*1), X0, X0
	VMOVSS X0, (DI)(AX*1)
	ADDQ $4, AX
	JMP quadtail

	// dst = dst + a for the last len(rows) % 4 rows
single:
	CMPQ R8, BX
	JAE done
	ROW(0, R12)
	ADDQ $4, R8
	XORQ AX, AX
	TESTQ R11, R11
	JZ singletail
singlevec:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS (R12)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R11
	JB singlevec
singletail:
	CMPQ AX, R10
	JAE single
	VMOVSS (DI)(AX*1), X0
	VADDSS (R12)(AX*1), X0, X0
	VMOVSS X0, (DI)(AX*1)
	ADDQ $4, AX
	JMP singletail

done:
	VZEROUPPER
	MOVB $1, ok+80(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+80(FP)
	RET

// func scaleClampAVX2(data, f []float32, lo, hi float32)
//
// Every lane runs NormalizeClamp's scalar body on one element: one
// VMULPS (w * f[j], no FMA), then ordered-quiet compares against the
// bounds (LT_OQ for <, GT_OQ for >), false on NaN like Go's operators,
// and blends in place of MINPS/MAXPS, so -0 and NaN pass through as
// they do there. The lo blend runs last, so lo wins where both compares
// hold, as Clamp's if/else does.
TEXT ·scaleClampAVX2(SB), NOSPLIT, $0-56
	MOVQ data_base+0(FP), DI
	MOVQ data_len+8(FP), BX
	LEAQ (DI)(BX*4), BX         // BX: end of data
	MOVQ f_base+24(FP), SI
	MOVQ f_len+32(FP), R10
	SHLQ $2, R10                // R10: row bytes
	MOVQ R10, R11
	ANDQ $~31, R11              // R11: bytes covered by whole vectors
	VBROADCASTSS lo+48(FP), Y1
	VBROADCASTSS hi+52(FP), Y2
	TESTQ R11, R11
	JZ done
row:
	CMPQ DI, BX
	JAE done
	XORQ AX, AX
vec:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS (SI)(AX*1), Y0, Y0
	VCMPPS $0x11, Y1, Y0, Y3    // LT_OQ: w < lo
	VCMPPS $0x1e, Y2, Y0, Y4    // GT_OQ: w > hi
	VBLENDVPS Y4, Y2, Y0, Y0
	VBLENDVPS Y3, Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R11
	JB vec
	ADDQ R10, DI
	JMP row

done:
	VZEROUPPER
	RET

// func scaleAVX2(x []float32, c float32)
//
// x[i] = x[i] * c, one VMULPS per eight elements, with the operands in
// the Go loop's order.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	SHLQ $2, CX
	ANDQ $~31, CX               // CX: bytes covered by whole vectors
	VBROADCASTSS c+24(FP), Y1
	XORQ AX, AX
	TESTQ CX, CX
	JZ done
vec:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB vec

done:
	VZEROUPPER
	RET
