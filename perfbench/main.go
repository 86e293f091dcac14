// Command perfbench is the SparkXD repository benchmark. It runs one
// named workload against the code in this checkout, with inputs drawn
// from --seed, checks every output, and prints one JSON result line:
//
//	go run . --workload sweep --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and prints the per-layer metrics derived from
// the spans (written to .bench_build/traces). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times each workload sets itself up per run;
// setup_s is the median.
const setupReps = 3

// runCtx is what a workload receives: its seed, the timed window, and a
// tracer (nil when the run is untraced).
type runCtx struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer
}

// outcome is what a workload measured.
type outcome struct {
	setupS    []float64 // one per set-up repetition
	latS      []float64 // one per completed timed operation
	units     float64   // work completed in the timed loop (scenarios, pipelines, jobs)
	wallS     float64   // wall time of the timed loop
	attempted int
	failed    int
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

var workloads = map[string]func(*runCtx) (*outcome, error){
	"sweep":         runSweep,
	"pipeline":      runPipeline,
	"service_local": func(rc *runCtx) (*outcome, error) { return runService(rc, modeLocal) },
	"service_fleet": func(rc *runCtx) (*outcome, error) { return runService(rc, modeFleet) },
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer lists every per-layer metric with its unit. A layer a
// workload never enters reports 0.
var perLayer = []struct{ name, unit string }{
	{"sdk.train_s", "s"}, {"sdk.improve_s", "s"}, {"sdk.analyze_s", "s"},
	{"sdk.map_s", "s"}, {"sdk.evaluate_s", "s"}, {"sdk.energy_s", "s"},
	{"sdk.sweep_s", "s"}, {"sdk.residual_ms", "ms"},
	{"engine.scenario_ms", "ms"}, {"engine.profile_hit_ratio", "ratio"}, {"engine.residual_ms", "ms"},
	{"snn.evaluate_ms", "ms"}, {"snn.encode_ms", "ms"}, {"snn.train_epoch_ms", "ms"},
	{"errmodel.inject_ms", "ms"}, {"errmodel.prepare_ms", "ms"}, {"errmodel.profile_ms", "ms"},
	{"quant.roundtrip_ms", "ms"}, {"mapping.sparkxd_ms", "ms"}, {"memctrl.energy_ms", "ms"},
	{"client.latency_p50_ms", "ms"}, {"client.submit_ms", "ms"}, {"client.wait_lag_ms", "ms"},
	{"server.admit_ms", "ms"}, {"server.queue_wait_p50_ms", "ms"}, {"server.queue_wait_p90_ms", "ms"},
	{"server.lease_overhead_ms", "ms"},
	{"jobrun.warm_build_ms", "ms"}, {"jobrun.warm_hit_ratio", "ratio"},
	{"jobrun.stage_train_ms", "ms"}, {"jobrun.stage_improve_ms", "ms"}, {"jobrun.stage_sweep_ms", "ms"},
	{"store.put_ms", "ms"}, {"server.dedup_ratio", "ratio"},
	{"server.requeued", "count"}, {"worker.heartbeats", "count"},
	{"trace.residual_ms", "ms"}, {"loadgen.late_p99_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: sweep, pipeline, service_local, service_fleet")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "timed window per run")
		trace    = flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
		capacity = flag.Bool("capacity", false, "service workloads: measure closed-loop capacity instead")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sweep|pipeline|service_local|service_fleet, --seconds > 0, --trace 0|1")
		return 2
	}
	// Inputs come from the seed alone: never from a real dataset on disk.
	os.Unsetenv("SPARKXD_DATA_DIR")
	rc := &runCtx{seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	if *capacity {
		return measureCapacity(rc, *name)
	}

	out, err := wl(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if *trace == 0 {
		res.Metrics["setup_s"] = metric{median(out.setupS), "s"}
		res.Metrics["throughput_per_s"] = metric{ratio(out.units, out.wallS), "1/s"}
		res.Metrics["max_rss_mib"] = metric{maxRSSMiB(), "MiB"}
	} else {
		rc.tr = newTracer()
		traced, err := wl(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		traced.layers["client.latency_p50_ms"] = median(traced.latS) * 1e3
		traced.layers["trace.overhead_ratio"] = ratio(mean(traced.latS), mean(out.latS))
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{traced.layers[m.name], m.unit}
		}
		dir := filepath.Join(".bench_build", "traces")
		if err := rc.tr.write(dir, fmt.Sprintf("%s-seed%d.json", *name, *seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
