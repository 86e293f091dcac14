package snn

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	"sparkxd/internal/dataset"
	"sparkxd/internal/numeric"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
)

// sameWeights reports whether a and b hold the same bit patterns.
func sameWeights(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// fullLoad is the reference the patched load must equal: the whole image
// decoded, then loaded through SetWeightsFlat.
func fullLoad(t *testing.T, n *Network, img []byte, f quant.Format) []float32 {
	t.Helper()
	w := make([]float32, len(n.W.Data))
	if err := quant.Deserialize(img, f, w); err != nil {
		t.Fatal(err)
	}
	ref := &Network{Cfg: n.Cfg, W: numeric.NewMatrix(n.W.Rows, n.W.Cols)}
	if err := ref.SetWeightsFlat(w); err != nil {
		t.Fatal(err)
	}
	return ref.W.Data
}

// FuzzPatchedLoad drives the evaluator's sparse load against the full
// one. Weights come from raw bit patterns (read cyclically from vals, so
// NaN, infinities, subnormals and out-of-range values all occur), format
// picks FP32, FP16 or Q8.8, pad sets the image padding unit, and every
// two bytes of flips name one image bit, padding included and repeats
// allowed. Two flip sets, the halves of flips, run back to back on one
// evaluator. Each patched load must equal SetWeightsFlat of the decoded
// corrupted image bit for bit; after the restore, the clone must hold the
// clean load again, and re-flipping must give back the clean image.
func FuzzPatchedLoad(f *testing.F) {
	f.Add(uint8(0), uint8(7), []byte("\x00\x00\xc0\x7f\x00\x00\x80\xff\x01\x00\x00\x00\x00\x00\x00\x42"), []byte("\x1e\x00\x3f\x00\x60\x00\x60\x00\x7f\x00"))
	f.Add(uint8(1), uint8(3), []byte("\x00\x3c\x00\x7c\x01\x00\x00\xfc\xff\x7b\x00\x80"), []byte("\x0e\x00\x0e\x00\x1e\x00\x2f\x00\x3f\x00\x30\x00"))
	f.Add(uint8(2), uint8(15), []byte("\x00\x00\x80\x3f\x00\x00\x00\xc3\x00\x00\x00\x80"), []byte("\x0f\x00\x20\x00\x2f\x00\x7f\x00"))
	f.Fuzz(func(t *testing.T, format, pad uint8, vals, flips []byte) {
		fm := []quant.Format{quant.FP32, quant.FP16, quant.Q88}[format%3]
		n := min(max((len(vals)+3)/4, 1), 64)
		master := make([]float32, n)
		for i := range master {
			var bits uint32
			for k := 0; k < 4 && len(vals) > 0; k++ {
				bits |= uint32(vals[(4*i+k)%len(vals)]) << (8 * k)
			}
			master[i] = math.Float32frombits(bits)
		}
		clean := make([]byte, fm.ImageSize(n, 1+int(pad)%16))
		if err := quant.Serialize(master, fm, clean); err != nil {
			t.Fatal(err)
		}

		net := &Network{Cfg: Config{WMax: 1}, W: numeric.NewMatrix(1, n)}
		cleanLoad, err := net.DecodeWeights(clean, fm)
		if err != nil {
			t.Fatal(err)
		}
		if !sameWeights(cleanLoad, fullLoad(t, net, clean, fm)) {
			t.Fatalf("%v: DecodeWeights differs from SetWeightsFlat of the decoded image", fm)
		}
		for i, v := range cleanLoad {
			if math.IsNaN(float64(v)) || v < -LoadClampFactor || v > LoadClampFactor {
				t.Fatalf("%v: weight %d loads as %v", fm, i, v)
			}
		}

		// Stale weights the first patch must replace with the clean load.
		clone := &Network{Cfg: net.Cfg, W: numeric.NewMatrix(1, n)}
		for i := range clone.W.Data {
			clone.W.Data[i] = 42
		}
		ev := &Evaluator{clone: clone}

		bitsIn := int64(len(clean)) * 8
		set := make([]int64, 0, len(flips)/2)
		for k := 0; k+1 < len(flips); k += 2 {
			set = append(set, int64(binary.LittleEndian.Uint16(flips[k:]))%bitsIn)
		}
		img := append([]byte(nil), clean...)
		for _, round := range [][]int64{set[:len(set)/2], set[len(set)/2:]} {
			for _, b := range round {
				quant.FlipBit(img, b)
			}
			if err := ev.patch(cleanLoad, img, fm, round); err != nil {
				t.Fatal(err)
			}
			if want := fullLoad(t, net, img, fm); !sameWeights(ev.clone.W.Data, want) {
				t.Fatalf("%v flips %v: patched load %v, full load %v", fm, round, ev.clone.W.Data, want)
			}
			ev.unpatch(cleanLoad, fm, round)
			if !sameWeights(ev.clone.W.Data, cleanLoad) {
				t.Fatalf("%v flips %v: restored load %v, clean load %v", fm, round, ev.clone.W.Data, cleanLoad)
			}
			for _, b := range round {
				quant.FlipBit(img, b)
			}
			if !bytes.Equal(img, clean) {
				t.Fatalf("%v flips %v: re-flipped image differs from the clean image", fm, round)
			}
		}
	})
}

// TestEvaluatePatchedMatchesFullLoad: patched evaluations, interleaved
// with full loads through EvaluateWeightsEncoded and switching between
// two clean images, give exactly the accuracy of the full load, and each
// leaves the clone holding its clean load.
func TestEvaluatePatchedMatchesFullLoad(t *testing.T) {
	net, err := New(DefaultConfig(15), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.DefaultConfig(dataset.MNISTLike)
	cfg.Train, cfg.Test = 4, 10
	train, test, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.TrainEpoch(train, rng.New(4))
	net.AssignLabels(train, rng.New(5))
	ctx := context.Background()
	es, err := net.EncodeDataset(ctx, test, rng.New(7), 1)
	if err != nil {
		t.Fatal(err)
	}

	type group struct {
		f     quant.Format
		img   []byte
		clean []float32
	}
	var groups []group
	for _, f := range []quant.Format{quant.FP32, quant.FP16} {
		img := make([]byte, f.ImageSize(net.WeightCount(), 0))
		if err := quant.Serialize(net.W.Data, f, img); err != nil {
			t.Fatal(err)
		}
		clean, err := net.DecodeWeights(img, f)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, group{f, img, clean})
	}

	ev := NewEvaluatorWorkers(net, 1)
	full := NewEvaluatorWorkers(net, 1)
	r := rng.New(3)
	for step, g := range []int{0, 0, 0, 1, 1, 0} {
		gr := groups[g]
		img := append([]byte(nil), gr.img...)
		var flips []int64
		for k := 0; k < 40*step; k++ {
			b := r.Int63n(int64(len(img)) * 8)
			quant.FlipBit(img, b)
			flips = append(flips, b)
		}
		w := make([]float32, net.WeightCount())
		if err := quant.Deserialize(img, gr.f, w); err != nil {
			t.Fatal(err)
		}
		want, err := full.EvaluateWeightsEncoded(ctx, es, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.EvaluatePatched(ctx, es, gr.clean, img, gr.f, flips)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d (%v, %d flips): patched accuracy %v, full load %v", step, gr.f, len(flips), got, want)
		}
		if !sameWeights(ev.clone.W.Data, gr.clean) {
			t.Fatalf("step %d: clone does not hold the clean load after EvaluatePatched", step)
		}
		// A full load through the same evaluator replaces the clean load;
		// the next patched evaluation must copy it back in.
		if step%2 == 1 {
			if _, err := ev.EvaluateWeightsEncoded(ctx, es, w); err != nil {
				t.Fatal(err)
			}
		}
	}
}
