//go:build amd64 && !race

#include "textflag.h"

// func stepAVX2(v, theta, input []float32, refrac []int16, spikes []int32,
//	rest, reset, vth, floor, thetaPlus, decayV, decayTheta float32, refSteps int16) (n int)
//
// Each lane runs Step's scalar body: the same binary32 operations on the
// same operands in the same order, with no FMA. The refractory, floor
// and threshold branches become masks; the compares are ordered-quiet
// (LT_OQ for <, GE_OQ for >=), false on NaN like Go's operators, and
// every select is a blend, so -0 and NaN pass through as they do there.
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
	VPBROADCASTW refSteps+148(FP), X11
	VPCMPEQW X12, X12, X12        // -1 in every int16 lane
	VPXOR X13, X13, X13
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
	VMOVDQU (R9)(AX*2), X1
	VPCMPGTW X13, X1, X2          // refrac > 0
	VPMOVSXWD X2, Y2
	VANDNPS Y14, Y2, Y14

	// V = reset on refractory and firing lanes, v elsewhere
	VORPS Y14, Y2, Y2
	VBLENDVPS Y2, Y5, Y3, Y3
	VMOVUPS Y3, (DI)(AX*4)

	// theta = th + thetaPlus on firing lanes, th elsewhere
	VADDPS Y8, Y0, Y2
	VBLENDVPS Y14, Y2, Y0, Y0
	VMOVUPS Y0, (SI)(AX*4)

	// refrac - 1 on refractory lanes, refSteps on firing lanes
	VPCMPGTW X13, X1, X2
	VPADDW X12, X1, X3
	VPBLENDVB X2, X3, X1, X1
	VEXTRACTI128 $1, Y14, X3
	VPACKSSDW X3, X14, X3         // fire mask as eight int16 lanes
	VPBLENDVB X3, X11, X1, X1
	VMOVDQU X1, (R9)(AX*2)

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
