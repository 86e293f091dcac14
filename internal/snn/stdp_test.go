package snn

import (
	"encoding/binary"
	"math"
	"testing"

	"sparkxd/internal/numeric"
)

// applySTDPReference is the one-expression STDP update with the branchy
// clamp, the reference applySTDP must match bit for bit.
func applySTDPReference(n *Network, spikes []int32) {
	cfg := &n.Cfg
	cols := n.Cfg.Neurons
	for _, j := range spikes {
		col := int(j)
		for i := 0; i < cfg.Inputs; i++ {
			w := n.W.Data[i*cols+col]
			w += cfg.EtaPost * (n.xpre[i] - cfg.XTar) * (cfg.WMax - w)
			if w < 0 {
				w = 0
			} else if w > cfg.WMax {
				w = cfg.WMax
			}
			n.W.Data[i*cols+col] = w
		}
	}
}

// stdpBits reads the k-th little-endian 32-bit word of b, wrapping
// around; an empty b reads as zeros.
func stdpBits(b []byte, k int) uint32 {
	if len(b) == 0 {
		return 0
	}
	var w [4]byte
	for i := range w {
		w[i] = b[(4*k+i)%len(b)]
	}
	return binary.LittleEndian.Uint32(w[:])
}

// nonNegative maps raw bits to a value Config.Validate accepts for
// EtaPost and XTar: the sign is cleared and NaN becomes def.
func nonNegative(bits uint32, def float32) float32 {
	v := math.Float32frombits(bits &^ (1 << 31))
	if v != v {
		return def
	}
	return v
}

// FuzzApplySTDP checks applySTDP against applySTDPReference on networks
// of 1–40 inputs and 1–16 neurons. Weights and traces come in as raw bit
// patterns (NaN, ±0, ±Inf, subnormals, negative values and values above
// WMax), spike lists are drawn with repeats allowed, and WMax is 1, 0.5,
// 3e38, +Inf, the smallest subnormal, or drawn positive and not NaN.
// EtaPost and XTar are drawn non-negative and not NaN, as Config.Validate
// requires. The weights must match bit for bit, NaN payloads included.
func FuzzApplySTDP(f *testing.F) {
	f.Add(uint8(0), uint32(0), uint32(0x3D4CCCCD), uint32(0x3E19999A), uint8(5), uint8(3),
		[]byte("\x00\x00\xc0\x7f\x00\x00\x80\xff\x00\x00\x00\x80\x00\x00\x80\x7f\x00\x00\x80\xbf\x00\x00\x00\x40\x01\x00\x00\x80\x01\x00\x00\x00"),
		[]byte("\x00\x00\x80\x3f\x00\x00\x00\x00\xcd\xcc\x4c\x3e"), []byte("\x00\x02\x01\x02"))
	f.Add(uint8(1), uint32(0), uint32(0x3D4CCCCD), uint32(0x3E19999A), uint8(7), uint8(8),
		[]byte("\x00\x00\x00\x3f\xff\xff\x7f\x7f\x01\x00\x80\x3f\xff\xff\x7f\xff\x00\x00\xc0\xff"),
		[]byte("\x00\x00\xc0\x7f\x00\x00\x80\x7f\x00\x00\x00\x80"), []byte("\x07\x00\x03"))
	f.Add(uint8(2), uint32(0), uint32(0x7F800000), uint32(0), uint8(3), uint8(2),
		[]byte("\xff\xff\x7f\x7f\x00\x00\x80\x7f\x00\x00\x80\xff\x9a\x99\x99\x3e"),
		[]byte("\x00\x00\x00\x00\x00\x00\x80\x3f"), []byte("\x01\x01\x00"))
	f.Add(uint8(3), uint32(0), uint32(0x3D4CCCCD), uint32(0x3E19999A), uint8(39), uint8(15),
		[]byte("\x00\x00\x80\x7f\xcd\xcc\x4c\x3e\x00\x00\x80\xbf\x00\x00\xc0\x7f"),
		[]byte("\x00\x00\x80\x3f\x00\x00\x00\x3f"), []byte("\x0f\x00\x05\x0a"))
	f.Add(uint8(4), uint32(0), uint32(0x3F800000), uint32(0), uint8(2), uint8(1),
		[]byte("\x01\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x80\x00\x00\x00\x00"),
		[]byte("\x00\x00\x80\x3f"), []byte("\x00"))
	f.Add(uint8(5), uint32(0x3F8CCCCD), uint32(0x3D4CCCCD), uint32(0x3E19999A), uint8(11), uint8(4),
		[]byte("\x00\x00\x90\x3f\x00\x00\x80\x3f\xcd\xcc\x8c\x3f\x00\x00\x00\x80"),
		[]byte("\x00\x00\x80\x3f\x00\x00\x00\x00"), []byte("\x00\x01\x02\x03"))
	f.Fuzz(func(t *testing.T, wsel uint8, wbits, etaBits, xtarBits uint32, inputs, neurons uint8,
		weights, traces, spikeBytes []byte) {
		wmax := [...]float32{1, 0.5, 3e38, float32(math.Inf(1)), math.Float32frombits(1), 0}[wsel%6]
		if wmax == 0 {
			wmax = math.Float32frombits(wbits &^ (1 << 31))
			if !(wmax > 0) {
				wmax = 1
			}
		}
		cfg := Config{
			Inputs:  1 + int(inputs)%40,
			Neurons: 1 + int(neurons)%16,
			WMax:    wmax,
			EtaPost: nonNegative(etaBits, 0.05),
			XTar:    nonNegative(xtarBits, 0.15),
		}
		spikes := make([]int32, len(spikeBytes))
		for k, b := range spikeBytes {
			spikes[k] = int32(int(b) % cfg.Neurons)
		}
		got := &Network{
			Cfg:     cfg,
			W:       numeric.NewMatrix(cfg.Inputs, cfg.Neurons),
			xpre:    make([]float32, cfg.Inputs),
			stdpPre: make([]float32, cfg.Inputs),
		}
		for k := range got.W.Data {
			got.W.Data[k] = math.Float32frombits(stdpBits(weights, k))
		}
		for i := range got.xpre {
			got.xpre[i] = math.Float32frombits(stdpBits(traces, i))
		}
		want := &Network{Cfg: cfg, W: got.W.Clone(), xpre: append([]float32(nil), got.xpre...)}

		got.applySTDP(spikes)
		applySTDPReference(want, spikes)
		for k := range got.W.Data {
			if g, w := math.Float32bits(got.W.Data[k]), math.Float32bits(want.W.Data[k]); g != w {
				t.Fatalf("WMax %v EtaPost %v XTar %v: weight %d (row %d, col %d) = %#08x, reference %#08x",
					wmax, cfg.EtaPost, cfg.XTar, k, k/cfg.Neurons, k%cfg.Neurons, g, w)
			}
		}
	})
}
