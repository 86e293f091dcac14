//go:build !amd64 || race

package neuron

func stepAVX2(v, theta, input []float32, refrac, spikes []int32,
	rest, reset, vth, floor, thetaPlus, decayV, decayTheta float32, refSteps int32) (n int) {
	panic("neuron: no AVX2 kernels in this build")
}

func inhibitAVX2(v []float32, spikes []int32, sub, floor, reset float32) {
	panic("neuron: no AVX2 kernels in this build")
}
