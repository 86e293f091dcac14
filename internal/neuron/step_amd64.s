//go:build amd64 && !race

#include "textflag.h"

// func stepAVX2(v, theta, input []float32, refrac, spikes []int32,
//	rest, reset, vth, floor, thetaPlus, decayV, decayTheta float32, refSteps int32) (n int)
//
// Each lane runs Step's scalar body: the same binary32 operations on the
// same operands in the same order, with no FMA. The refractory, floor
// and threshold branches become masks; the compares are ordered-quiet
// (LT_OQ for <, GE_OQ for >=), false on NaN like Go's operators, and
// every select is a blend, so -0 and NaN pass through as they do there.
// The refractory counters are int32 lanes, one per float lane.
TEXT ·stepAVX2(SB), NOSPLIT, $0-160
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ theta_base+24(FP), SI
	MOVQ input_base+48(FP), R8
	MOVQ refrac_base+72(FP), R9
	MOVQ spikes_base+96(FP), R10
	VBROADCASTSS rest+120(FP), Y4
	VBROADCASTSS reset+124(FP), Y5
	VBROADCASTSS vth+128(FP), Y6
	VBROADCASTSS floor+132(FP), Y7
	VBROADCASTSS thetaPlus+136(FP), Y8
	VBROADCASTSS decayV+140(FP), Y9
	VBROADCASTSS decayTheta+144(FP), Y10
	VBROADCASTSS refSteps+148(FP), Y11  // the int32 bits in every lane
	VPXOR Y13, Y13, Y13
	XORQ AX, AX                   // AX: first neuron of the block
	XORQ R11, R11                 // R11: spikes written
	TESTQ CX, CX
	JZ done

block:
	// th = theta * decayTheta
	VMOVUPS (SI)(AX*4), Y0
	VMULPS Y10, Y0, Y0

	// v = rest + (V - rest) * decayV + input; v = floor where v < floor
	VMOVUPS (DI)(AX*4), Y3
	VSUBPS Y4, Y3, Y3
	VMULPS Y9, Y3, Y3
	VADDPS Y3, Y4, Y3
	VADDPS (R8)(AX*4), Y3, Y3
	VCMPPS $0x11, Y7, Y3, Y14     // LT_OQ
	VBLENDVPS Y14, Y7, Y3, Y3

	// fire = v >= vth + th, outside the refractory lanes
	VADDPS Y0, Y6, Y14
	VCMPPS $0x1d, Y14, Y3, Y14    // GE_OQ
	VMOVDQU (R9)(AX*4), Y1
	VPCMPGTD Y13, Y1, Y2          // refrac > 0: -1 in those lanes
	VANDNPS Y14, Y2, Y14

	// refrac + (-1) on refractory lanes, refSteps on firing lanes
	VPADDD Y2, Y1, Y1
	VBLENDVPS Y14, Y11, Y1, Y1
	VMOVDQU Y1, (R9)(AX*4)

	// V = reset on refractory and firing lanes, v elsewhere
	VORPS Y14, Y2, Y2
	VBLENDVPS Y2, Y5, Y3, Y3
	VMOVUPS Y3, (DI)(AX*4)

	// theta = th + thetaPlus on firing lanes, th elsewhere
	VADDPS Y8, Y0, Y2
	VBLENDVPS Y14, Y2, Y0, Y0
	VMOVUPS Y0, (SI)(AX*4)

	// append the firing neurons' indices, lowest lane first
	VMOVMSKPS Y14, BX
	TESTL BX, BX
	JZ next
spike:
	BSFL BX, DX
	ADDL AX, DX
	MOVL DX, (R10)(R11*4)
	INCQ R11
	LEAL -1(BX), DX
	ANDL DX, BX
	JNZ spike
next:
	ADDQ $8, AX
	CMPQ AX, CX
	JB block

done:
	VZEROUPPER
	MOVQ R11, n+152(FP)
	RET

// func inhibitAVX2(v []float32, spikes []int32, sub, floor, reset float32)
//
// Each lane runs Inhibit's scalar body for a loser: one VSUBPS (v - sub),
// then an LT_OQ compare against floor and a blend, as Inhibit's `<` and
// assignment. Winners go through the same pass and are then set back to
// reset, the value the LIF pass gave every neuron that fired, so each
// ends as Inhibit leaves it, untouched. The last len(v)%8 lanes run the
// same operations one at a time.
TEXT ·inhibitAVX2(SB), NOSPLIT, $0-60
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ spikes_base+24(FP), SI
	MOVQ spikes_len+32(FP), BX
	VBROADCASTSS sub+48(FP), Y1
	VBROADCASTSS floor+52(FP), Y2
	MOVQ CX, DX
	ANDQ $~7, DX                  // DX: lanes in whole vectors
	XORQ AX, AX
	TESTQ DX, DX
	JZ tail
vec:
	VMOVUPS (DI)(AX*4), Y0
	VSUBPS Y1, Y0, Y0
	VCMPPS $0x11, Y2, Y0, Y3      // LT_OQ
	VBLENDVPS Y3, Y2, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, DX
	JB vec
tail:
	CMPQ AX, CX
	JAE winners
	VMOVSS (DI)(AX*4), X0
	VSUBSS X1, X0, X0
	VCMPSS $0x11, X2, X0, X3      // LT_OQ
	VBLENDVPS X3, X2, X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP tail

winners:
	MOVL reset+56(FP), R8
	XORQ AX, AX
	TESTQ BX, BX
	JZ done
winner:
	MOVLQSX (SI)(AX*4), DX
	MOVL R8, (DI)(DX*4)
	INCQ AX
	CMPQ AX, BX
	JB winner

done:
	VZEROUPPER
	RET
