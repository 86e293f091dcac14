package neuron

import (
	"math"
	"testing"
)

func pool(t *testing.T, n int) *Pool {
	t.Helper()
	p, err := NewPool(DefaultLIF(n))
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultLIF(10).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultLIF(0)
	if bad.Validate() == nil {
		t.Error("N=0 must be invalid")
	}
	bad = DefaultLIF(5)
	bad.VTh = bad.VReset
	if bad.Validate() == nil {
		t.Error("threshold <= reset must be invalid")
	}
	bad = DefaultLIF(5)
	bad.DT = 0
	if bad.Validate() == nil {
		t.Error("zero dt must be invalid")
	}
	bad = DefaultLIF(5)
	bad.RefractorySteps = -1
	if bad.Validate() == nil {
		t.Error("negative refractory must be invalid")
	}
}

func TestNoInputNoSpikes(t *testing.T) {
	p := pool(t, 10)
	input := make([]float32, 10)
	for i := 0; i < 100; i++ {
		if s := p.Step(input, 0, nil); len(s) != 0 {
			t.Fatal("silent input must not spike")
		}
	}
}

func TestStrongInputSpikes(t *testing.T) {
	p := pool(t, 4)
	input := []float32{100, 0, 0, 0}
	s := p.Step(input, 0, nil)
	if len(s) != 1 || s[0] != 0 {
		t.Fatalf("spikes = %v, want [0]", s)
	}
	if p.V[0] != p.Cfg.VReset {
		t.Error("spiking neuron must reset")
	}
}

func TestSubthresholdIntegration(t *testing.T) {
	p := pool(t, 1)
	input := []float32{4} // below the threshold of 10 but integrates up
	spiked := false
	for i := 0; i < 20; i++ {
		if len(p.Step(input, 0, nil)) > 0 {
			spiked = true
			break
		}
	}
	if !spiked {
		t.Fatal("sustained subthreshold input should integrate to a spike")
	}
}

func TestLeakDecay(t *testing.T) {
	p := pool(t, 1)
	p.V[0] = 8
	zero := []float32{0}
	p.Step(zero, 0, nil)
	want := 8 * float32(math.Exp(-p.Cfg.DT/p.Cfg.TauM))
	if math.Abs(float64(p.V[0]-want)) > 1e-5 {
		t.Fatalf("V after leak = %v, want %v", p.V[0], want)
	}
}

func TestRefractoryPeriod(t *testing.T) {
	p := pool(t, 1)
	big := []float32{1000}
	if len(p.Step(big, 0, nil)) != 1 {
		t.Fatal("expected a spike")
	}
	for i := 0; i < p.Cfg.RefractorySteps; i++ {
		if len(p.Step(big, 0, nil)) != 0 {
			t.Fatal("refractory neuron must not spike")
		}
	}
	if len(p.Step(big, 0, nil)) != 1 {
		t.Fatal("neuron should spike again after the refractory period")
	}
}

func TestThetaGrowsWithSpikes(t *testing.T) {
	p := pool(t, 1)
	big := []float32{1000}
	p.Step(big, 0, nil)
	if p.Theta[0] <= 0 {
		t.Fatal("theta must grow after a spike")
	}
}

func TestThetaDecays(t *testing.T) {
	p := pool(t, 1)
	p.Theta[0] = 1
	zero := []float32{0}
	p.Step(zero, 0, nil)
	if p.Theta[0] >= 1 {
		t.Fatal("theta must decay over time")
	}
}

func TestHomeostasisSlowsFiring(t *testing.T) {
	// With constant drive, theta accumulation must stretch inter-spike
	// intervals over time.
	cfg := DefaultLIF(1)
	cfg.ThetaPlus = 2
	p, _ := NewPool(cfg)
	input := []float32{6}
	var spikeTimes []int
	for i := 0; i < 400; i++ {
		if len(p.Step(input, 0, nil)) > 0 {
			spikeTimes = append(spikeTimes, i)
		}
	}
	if len(spikeTimes) < 4 {
		t.Fatalf("expected several spikes, got %d", len(spikeTimes))
	}
	firstGap := spikeTimes[1] - spikeTimes[0]
	lastGap := spikeTimes[len(spikeTimes)-1] - spikeTimes[len(spikeTimes)-2]
	if lastGap <= firstGap {
		t.Errorf("homeostasis should stretch ISIs: first=%d last=%d", firstGap, lastGap)
	}
}

func TestResetStatePreservesTheta(t *testing.T) {
	p := pool(t, 2)
	p.Step([]float32{1000, 0}, 0, nil)
	theta := p.Theta[0]
	p.V[1] = 5
	p.ResetState()
	if p.V[1] != p.Cfg.VRest {
		t.Error("ResetState must reset membranes")
	}
	if p.Theta[0] != theta {
		t.Error("ResetState must keep theta")
	}
}

func TestInhibitSuppressesOthers(t *testing.T) {
	p := pool(t, 3)
	p.V = []float32{5, 5, 5}
	p.Inhibit([]int32{0}, 2)
	if p.V[0] != 5 {
		t.Error("winner must not be inhibited")
	}
	if p.V[1] != 3 || p.V[2] != 3 {
		t.Errorf("losers should drop to 3: %v", p.V)
	}
}

func TestInhibitClampsAtFloor(t *testing.T) {
	p := pool(t, 2)
	p.V = []float32{0, 0}
	p.Inhibit([]int32{0}, 1000)
	if p.V[1] != p.Cfg.VFloor {
		t.Errorf("inhibition must clamp at VFloor, got %v", p.V[1])
	}
}

func TestInhibitNoopCases(t *testing.T) {
	p := pool(t, 2)
	p.V = []float32{5, 5}
	p.Inhibit(nil, 3)
	p.Inhibit([]int32{0}, 0)
	if p.V[0] != 5 || p.V[1] != 5 {
		t.Error("no-op inhibition must not change potentials")
	}
}

func TestVFloorBoundsInput(t *testing.T) {
	p := pool(t, 1)
	p.Step([]float32{-1e6}, 0, nil)
	if p.V[0] < p.Cfg.VFloor {
		t.Fatal("membrane must clamp at VFloor under negative drive")
	}
}

func TestSpikeBufferReuse(t *testing.T) {
	p := pool(t, 3)
	buf := make([]int32, 0, 3)
	s := p.Step([]float32{1000, 1000, 0}, 0, buf)
	if len(s) != 2 {
		t.Fatalf("want 2 spikes, got %v", s)
	}
	if cap(s) != cap(buf) {
		t.Error("Step should reuse the provided buffer")
	}
}

func TestStepPanicsOnBadLength(t *testing.T) {
	p := pool(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	p.Step(make([]float32, 2), 0, nil)
}
