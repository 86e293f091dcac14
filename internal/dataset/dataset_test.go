package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"sparkxd/internal/rng"
)

func genSmall(t *testing.T, f Flavor) (*Dataset, *Dataset) {
	t.Helper()
	cfg := DefaultConfig(f)
	cfg.Train, cfg.Test = 100, 50
	train, test, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return train, test
}

func TestGenerateShapes(t *testing.T) {
	train, test := genSmall(t, MNISTLike)
	if train.Len() != 100 || test.Len() != 50 {
		t.Fatalf("sizes: %d/%d", train.Len(), test.Len())
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := test.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := genSmall(t, MNISTLike)
	b, _ := genSmall(t, MNISTLike)
	for i := range a.Images {
		if a.Labels[i] != b.Labels[i] || !bytes.Equal(a.Images[i], b.Images[i]) {
			t.Fatal("same config must generate identical data")
		}
	}
}

func TestFlavorsDiffer(t *testing.T) {
	a, _ := genSmall(t, MNISTLike)
	b, _ := genSmall(t, FashionLike)
	same := 0
	for i := range a.Images {
		if bytes.Equal(a.Images[i], b.Images[i]) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical images across flavours", same)
	}
}

func TestClassBalance(t *testing.T) {
	train, _ := genSmall(t, MNISTLike)
	counts := train.ClassCounts()
	for c, n := range counts {
		if n != 10 {
			t.Errorf("class %d has %d samples, want 10", c, n)
		}
	}
}

func TestImagesNonTrivial(t *testing.T) {
	train, _ := genSmall(t, MNISTLike)
	for i, img := range train.Images[:10] {
		var sum int
		for _, p := range img {
			sum += int(p)
		}
		if sum < 255*5 {
			t.Errorf("image %d nearly empty (sum=%d)", i, sum)
		}
		if sum > 255*Pixels/2 {
			t.Errorf("image %d nearly full (sum=%d)", i, sum)
		}
	}
}

// Same-class images must correlate more strongly than cross-class images;
// otherwise an unsupervised learner has nothing to find.
func TestClassSeparability(t *testing.T) {
	cfg := DefaultConfig(MNISTLike)
	cfg.Train, cfg.Test = 200, 10
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Average pixel vectors per class.
	var mean [NumClasses][Pixels]float64
	counts := train.ClassCounts()
	for i, img := range train.Images {
		c := train.Labels[i]
		for p, v := range img {
			mean[c][p] += float64(v)
		}
	}
	for c := range mean {
		for p := range mean[c] {
			mean[c][p] /= float64(counts[c])
		}
	}
	cos := func(a, b *[Pixels]float64) float64 {
		var dot, na, nb float64
		for p := 0; p < Pixels; p++ {
			dot += a[p] * b[p]
			na += a[p] * a[p]
			nb += b[p] * b[p]
		}
		return dot / (sqrt(na)*sqrt(nb) + 1e-12)
	}
	var within, between float64
	nb := 0
	for c := 0; c < NumClasses; c++ {
		within += cos(&mean[c], &mean[c]) // == 1, reference
		for d := c + 1; d < NumClasses; d++ {
			between += cos(&mean[c], &mean[d])
			nb++
		}
	}
	between /= float64(nb)
	if between > 0.9 {
		t.Errorf("class means nearly identical (mean cross-cos %.3f)", between)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Fashion flavour must be harder: higher cross-class overlap than MNIST.
func TestFashionHarderThanMNIST(t *testing.T) {
	overlap := func(f Flavor) float64 {
		cfg := DefaultConfig(f)
		cfg.Train, cfg.Test = 200, 10
		train, _, _ := Generate(cfg)
		var mean [NumClasses][Pixels]float64
		counts := train.ClassCounts()
		for i, img := range train.Images {
			c := train.Labels[i]
			for p, v := range img {
				mean[c][p] += float64(v)
			}
		}
		var between float64
		nb := 0
		for c := 0; c < NumClasses; c++ {
			for p := range mean[c] {
				mean[c][p] /= float64(counts[c])
			}
		}
		for c := 0; c < NumClasses; c++ {
			for d := c + 1; d < NumClasses; d++ {
				var dot, na, nbn float64
				for p := 0; p < Pixels; p++ {
					dot += mean[c][p] * mean[d][p]
					na += mean[c][p] * mean[c][p]
					nbn += mean[d][p] * mean[d][p]
				}
				between += dot / (sqrt(na)*sqrt(nbn) + 1e-12)
				nb++
			}
		}
		return between / float64(nb)
	}
	if overlap(FashionLike) <= overlap(MNISTLike) {
		t.Error("fashion flavour should overlap more across classes than MNIST flavour")
	}
}

func TestSubset(t *testing.T) {
	train, _ := genSmall(t, MNISTLike)
	s := train.Subset(7)
	if s.Len() != 7 {
		t.Fatal("Subset wrong length")
	}
	if train.Subset(10_000).Len() != train.Len() {
		t.Fatal("oversized Subset must clamp")
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	train, _ := genSmall(t, MNISTLike)
	sh := train.Shuffled(rng.New(5))
	if sh.Len() != train.Len() {
		t.Fatal("shuffle changed length")
	}
	// Same multiset of labels.
	a, b := train.ClassCounts(), sh.ClassCounts()
	if a != b {
		t.Fatal("shuffle changed label distribution")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := &Dataset{Images: [][]byte{make([]byte, 3)}, Labels: []uint8{0}}
	if d.Validate() == nil {
		t.Fatal("wrong pixel count must fail")
	}
	d2 := &Dataset{Images: [][]byte{make([]byte, Pixels)}, Labels: []uint8{10}}
	if d2.Validate() == nil {
		t.Fatal("out-of-range label must fail")
	}
	d3 := &Dataset{Images: [][]byte{make([]byte, Pixels)}, Labels: []uint8{}}
	if d3.Validate() == nil {
		t.Fatal("count mismatch must fail")
	}
}

func TestIDXImageRoundtrip(t *testing.T) {
	train, _ := genSmall(t, MNISTLike)
	var buf bytes.Buffer
	if err := WriteIDXImages(&buf, train.Images); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIDXImages(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != train.Len() {
		t.Fatal("image count changed")
	}
	for i := range back {
		if !bytes.Equal(back[i], train.Images[i]) {
			t.Fatalf("image %d corrupted", i)
		}
	}
}

func TestIDXLabelRoundtrip(t *testing.T) {
	labels := []uint8{0, 1, 2, 9, 5}
	var buf bytes.Buffer
	if err := WriteIDXLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIDXLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(labels) {
		t.Fatal("label count changed")
	}
	for i := range back {
		if back[i] != labels[i] {
			t.Fatal("labels corrupted")
		}
	}
}

func TestIDXRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 8, 1, 0, 0, 0, 0}) // label magic in image reader
	if _, err := ReadIDXImages(&buf); err == nil {
		t.Fatal("bad magic must error")
	}
	var buf2 bytes.Buffer
	buf2.Write([]byte{0, 0, 8, 3, 0, 0, 0, 0})
	if _, err := ReadIDXLabels(&buf2); err == nil {
		t.Fatal("bad magic must error")
	}
}

func TestIDXRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteIDXImages(&buf, [][]byte{make([]byte, Pixels)})
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadIDXImages(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated file must error")
	}
}

// The IDX readers allocate by what they read, not by the header's
// count: a short file claiming millions of images or labels fails as
// truncated having allocated well under a megabyte.
func TestIDXHeaderCountNotTrusted(t *testing.T) {
	header := func(words ...uint32) []byte {
		b := make([]byte, 4*len(words))
		for i, w := range words {
			binary.BigEndian.PutUint32(b[4*i:], w)
		}
		return b
	}
	cases := []struct {
		name string
		file []byte
		read func(io.Reader) error
		want string
	}{
		{"images", header(idxMagicImages, 1<<22, Side, Side),
			func(r io.Reader) error { _, err := ReadIDXImages(r); return err }, "truncated image 0"},
		{"labels", header(idxMagicLabels, 1<<26),
			func(r io.Reader) error { _, err := ReadIDXLabels(r); return err }, "truncated labels"},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read(bytes.NewReader(c.file))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte file", c.name, d, len(c.file))
		}
	}
}

// FuzzReadIDX: any input either fails to parse or parses to images or
// labels that the writers encode back to exactly the bytes the reader
// consumed; no input panics.
func FuzzReadIDX(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		if images, err := ReadIDXImages(r); err == nil {
			var buf bytes.Buffer
			if err := WriteIDXImages(&buf, images); err != nil {
				t.Fatalf("parsed images do not write back: %v", err)
			}
			if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
				t.Fatalf("images write back to %d bytes, reader consumed %d", buf.Len(), len(consumed))
			}
		}
		r = bytes.NewReader(data)
		if labels, err := ReadIDXLabels(r); err == nil {
			var buf bytes.Buffer
			if err := WriteIDXLabels(&buf, labels); err != nil {
				t.Fatalf("parsed labels do not write back: %v", err)
			}
			if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
				t.Fatalf("labels write back to %x, reader consumed %x", buf.Bytes(), consumed)
			}
		}
	})
}

func TestIDXRejectsBadLabels(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteIDXLabels(&buf, []uint8{99})
	if _, err := ReadIDXLabels(&buf); err == nil {
		t.Fatal("out-of-range label must error")
	}
}

func TestGenerateRejectsNegative(t *testing.T) {
	cfg := DefaultConfig(MNISTLike)
	cfg.Train = -1
	if _, _, err := Generate(cfg); err == nil {
		t.Fatal("negative count must error")
	}
}

func TestFlavorString(t *testing.T) {
	if MNISTLike.String() == FashionLike.String() {
		t.Fatal("flavour names must differ")
	}
}
