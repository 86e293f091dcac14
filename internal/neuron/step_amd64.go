//go:build amd64 && !race

package neuron

// stepAVX2 is Step's body for the first len(v) neurons, eight per block
// (len(v) is a multiple of 8; every slice is at least that long). It
// writes the indices of the neurons that fire, in ascending order, to
// spikes from index 0 and returns how many it wrote.
//
//go:noescape
func stepAVX2(v, theta, input []float32, refrac, spikes []int32,
	rest, reset, vth, floor, thetaPlus, decayV, decayTheta float32, refSteps int32) (n int)

// inhibitAVX2 is Step's inhibition pass over every neuron, after the LIF
// pass: v = v - sub, then floor where v < floor; then every neuron
// listed in spikes, each in [0, len(v)), gets reset back.
//
//go:noescape
func inhibitAVX2(v []float32, spikes []int32, sub, floor, reset float32)
