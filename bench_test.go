// Stage micro-benchmarks that no gated benchmark or workload covers:
// DRAM placement under both mapping policies and one controller replay
// of an inference pass. CI runs them once each as a smoke test
// (`make bench`); kernel performance is measured by kernel_bench_test.go
// against BENCH_kernel.json, and whole workloads by perfbench/.
package sparkxd_test

import (
	"testing"

	"sparkxd/internal/core"
	"sparkxd/internal/mapping"
	"sparkxd/internal/memctrl"
	"sparkxd/internal/voltscale"
)

// BenchmarkMappingBaseline places an N900-sized image sequentially.
func BenchmarkMappingBaseline(b *testing.B) {
	f := core.NewFramework()
	for i := 0; i < b.N; i++ {
		if _, err := f.LayoutForWeights(784*900, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMappingSparkXD runs Algorithm 2 with a realistic safe set.
func BenchmarkMappingSparkXD(b *testing.B) {
	f := core.NewFramework()
	profile, err := f.ProfileAt(voltscale.V1100)
	if err != nil {
		b.Fatal(err)
	}
	safe := profile.SafeSubarrays(1e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.SparkXD(f.Geom, 784*900*4/32, safe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerReplay streams one N900 inference pass.
func BenchmarkControllerReplay(b *testing.B) {
	f := core.NewFramework()
	layout, err := f.LayoutForWeights(784*900, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := memctrl.New(f.Geom, f.Circuit.Timing(voltscale.V1025))
	if err != nil {
		b.Fatal(err)
	}
	stream := layout.AccessStream()
	b.SetBytes(int64(len(stream) * f.Geom.ColumnBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctl.ReplayReads(stream)
	}
}
