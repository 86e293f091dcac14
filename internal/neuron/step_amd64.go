//go:build amd64 && !race

package neuron

// stepAVX2 is Step's body for the first len(v) neurons, eight per block
// (len(v) is a multiple of 8; every slice is at least that long). It
// writes the indices of the neurons that fire, in ascending order, to
// spikes from index 0 and returns how many it wrote.
//
//go:noescape
func stepAVX2(v, theta, input []float32, refrac []int16, spikes []int32,
	rest, reset, vth, floor, thetaPlus, decayV, decayTheta float32, refSteps int16) (n int)
