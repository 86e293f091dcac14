//go:build !amd64 || race

package neuron

func stepAVX2(v, theta, input []float32, refrac []int16, spikes []int32,
	rest, reset, vth, floor, thetaPlus, decayV, decayTheta float32, refSteps int16) (n int) {
	panic("neuron: no AVX2 kernels in this build")
}
