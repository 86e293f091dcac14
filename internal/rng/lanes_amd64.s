//go:build amd64 && !race

#include "textflag.h"

// STEP advances the xoshiro256** states of four lanes, held as s0-s3 in
// Y0-Y3, by one step and leaves each lane's output >> 11 in Y7. It is
// Uint64's body with s1*5 as (s1<<2)+s1, *9 as (x<<3)+x and each rotate
// as two shifts and an OR: integer operations only, so every lane's
// output and state equal the scalar ones bit for bit. It clobbers Y8.
#define STEP \
	VPSLLQ $2, Y1, Y7; \
	VPADDQ Y1, Y7, Y7; \
	VPSLLQ $7, Y7, Y8; \
	VPSRLQ $57, Y7, Y7; \
	VPOR   Y8, Y7, Y7; \
	VPSLLQ $3, Y7, Y8; \
	VPADDQ Y8, Y7, Y7; \
	VPSRLQ $11, Y7, Y7; \
	VPSLLQ $17, Y1, Y8; \
	VPXOR  Y0, Y2, Y2; \
	VPXOR  Y1, Y3, Y3; \
	VPXOR  Y2, Y1, Y1; \
	VPXOR  Y3, Y0, Y0; \
	VPXOR  Y8, Y2, Y2; \
	VPSLLQ $45, Y3, Y8; \
	VPSRLQ $19, Y3, Y3; \
	VPOR   Y8, Y3, Y3

// ACCUMULATE ORs the position's bit (Y5, one bit per lane) into the mask
// words (Y4) of the lanes whose output >> 11 (Y7) is below their
// threshold (Y9), then moves the bit up one place. Both sides of the
// signed compare are below 2^53, so it orders them as unsigned; a zero
// threshold is below no output.
#define ACCUMULATE \
	VPCMPGTQ Y7, Y9, Y7; \
	VPAND    Y5, Y7, Y7; \
	VPOR     Y7, Y4, Y4; \
	VPADDQ   Y5, Y5, Y5

// FLUSH stores the four lanes' mask words of the last 64 positions at DI
// and starts the next words.
#define FLUSH \
	VMOVDQU Y4, (DI); \
	ADDQ    $32, DI; \
	VPXOR   Y4, Y4, Y4; \
	VMOVDQA Y6, Y5

// func bernoulliBits4AVX2(st *[16]uint64, thr4 []uint64, full int, masks []uint64)
//
// Position k's four thresholds are one 32-byte load, and its four draws
// one STEP. Below full every lane draws; from full on, a lane whose
// threshold is 0 keeps its state through a blend, so its stream advances
// only at the positions where it has a threshold, as the scalar loop's
// does.
TEXT ·bernoulliBits4AVX2(SB), NOSPLIT, $0-64
	MOVQ st+0(FP), SI
	MOVQ thr4_base+8(FP), R8
	MOVQ thr4_len+16(FP), BX
	SHRQ $2, BX                 // BX: positions
	MOVQ full+32(FP), DX        // DX: positions where every lane draws
	MOVQ masks_base+40(FP), DI
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR Y15, Y15, Y15
	VPCMPEQQ Y6, Y6, Y6
	VPSRLQ $63, Y6, Y6          // Y6: 1 in every lane
	VPXOR Y4, Y4, Y4
	VMOVDQA Y6, Y5
	XORQ CX, CX                 // CX: position

full:
	CMPQ CX, DX
	JAE tail
	VMOVDQU (R8), Y9
	STEP
	ACCUMULATE
	ADDQ $32, R8
	INCQ CX
	TESTQ $63, CX
	JNZ full
	FLUSH
	JMP full

tail:
	CMPQ CX, BX
	JAE done
	VMOVDQU (R8), Y9
	VPCMPEQQ Y15, Y9, Y10       // Y10: the lanes that do not draw here
	VMOVDQA Y0, Y11
	VMOVDQA Y1, Y12
	VMOVDQA Y2, Y13
	VMOVDQA Y3, Y14
	STEP
	VPBLENDVB Y10, Y11, Y0, Y0
	VPBLENDVB Y10, Y12, Y1, Y1
	VPBLENDVB Y10, Y13, Y2, Y2
	VPBLENDVB Y10, Y14, Y3, Y3
	ACCUMULATE
	ADDQ $32, R8
	INCQ CX
	TESTQ $63, CX
	JNZ tail
	FLUSH
	JMP tail

done:
	TESTQ $63, CX
	JZ store
	FLUSH

store:
	VMOVDQU Y0, 0(SI)
	VMOVDQU Y1, 32(SI)
	VMOVDQU Y2, 64(SI)
	VMOVDQU Y3, 96(SI)
	VZEROUPPER
	RET
