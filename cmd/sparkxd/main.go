// Command sparkxd runs the end-to-end SparkXD pipeline (Fig. 7 of the
// paper) through the public sparkxd SDK: train a baseline SNN, improve
// its error tolerance with fault-aware training (Algorithm 1), find the
// maximum tolerable BER, map the weights into safe subarrays of the
// approximate DRAM (Algorithm 2), and report accuracy, DRAM energy, and
// throughput.
//
// Usage:
//
//	sparkxd single -neurons 400 -dataset mnist -voltage 1.025
//	sparkxd single -artifacts out/        # persist stage artifacts
//	sparkxd single -resume out/           # reuse them: no retraining
//
//	sparkxd run -neurons 200,400 -datasets mnist,fashion -workers 4
//	sparkxd run -shard 1/2 -json
//
// The run subcommand sweeps a grid of (dataset, network size) pipeline
// configurations as jobs of the internal/sched scheduler, largest first.
// With -json, one deterministic result record per configuration is
// written to stdout (byte-identical for any -workers value or -shard
// split) and timing records go to stderr.
//
//	sparkxd serve -addr 127.0.0.1:8080 -store ./artifacts
//	sparkxd serve -dispatch fleet -store ./artifacts   # coordinator only
//	sparkxd worker -join http://127.0.0.1:8080 -workers 4
//	sparkxd job submit -addr http://127.0.0.1:8080 -spec job.json
//
// The serve subcommand exposes the pipeline and sweep engine as an HTTP
// job service over a content-addressed artifact store. Every job runs
// under a lease protocol (at-most-one lease per job, TTL renewals,
// requeue on expiry): on the server's in-process worker, on `sparkxd
// worker` processes that join it, or — with -dispatch fleet — on those
// alone. Completed jobs are served from durable store records across
// restarts. job is the service's command-line client (see DESIGN.md
// §8/§9 and the sparkxd/client package).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"sparkxd"
	"sparkxd/internal/report"
	"sparkxd/internal/sched"
)

func usage(w io.Writer) {
	fmt.Fprintf(w, `sparkxd — resilient SNN inference on approximate DRAM

Usage:
  sparkxd <command> [flags]

Commands:
  single    run the end-to-end pipeline for one configuration
  run       sweep a (dataset x size) grid on the job scheduler
  sweep     evaluate one model over a (voltage x BER x error model x
            policy) scenario grid on the batched sweep engine
  serve     run the HTTP job service over a content-addressed store
            (workers may join; -dispatch fleet leaves them all jobs;
            -shard i/m federates coordinators over the job-ID space)
  store     expose a local artifact store over HTTP ("store serve") so
            coordinators, workers, and CLI runs can share one store
  worker    join a coordinator as a fleet worker: lease, execute,
            upload, complete
  job       talk to a running job service (submit, status, wait,
            events, fetch)
  loadgen   drive a running job service with concurrent closed-loop
            clients and print a JSON latency/throughput report
  trace     fetch a completed job's distributed trace and render it as
            an ASCII waterfall (or raw JSON with -json)
  version   print the sparkxd build version
  help      show this message

Run "sparkxd <command> -h" for the command's flags.
`)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommand and returns the process exit code:
// 0 success, 1 runtime failure, 2 usage error. Every subcommand shares
// this contract: unknown commands and bad flags print usage to stderr
// and exit 2, runtime failures exit 1.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "single":
		return runSingle(ctx, args[1:], stdout, stderr)
	case "run":
		return runSuite(ctx, args[1:], stdout, stderr)
	case "sweep":
		return runSweep(ctx, args[1:], stdout, stderr)
	case "serve":
		return runServe(ctx, args[1:], stdout, stderr)
	case "store":
		return runStore(ctx, args[1:], stdout, stderr)
	case "worker":
		return runWorker(ctx, args[1:], stdout, stderr)
	case "job":
		return runJob(ctx, args[1:], stdout, stderr)
	case "loadgen":
		return runLoadgen(ctx, args[1:], stdout, stderr)
	case "trace":
		return runTrace(ctx, args[1:], stdout, stderr)
	case "version":
		return runVersion(args[1:], stdout, stderr)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "sparkxd: unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
}

// parseFlags applies the shared flag-parsing contract: -h/-help prints
// the flag set's usage and exits 0; a bad flag prints usage to stderr
// and exits 2. The returned code is only meaningful when done is true.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, done bool) {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, true
		}
		return 2, true
	}
	return 0, false
}

// pipelineRecord is the deterministic per-configuration record emitted
// on stdout in -json mode (no timing: it must be byte-identical across
// worker counts).
type pipelineRecord struct {
	Job         string  `json:"job"`
	OK          bool    `json:"ok"`
	Error       string  `json:"error,omitempty"`
	Neurons     int     `json:"neurons,omitempty"`
	Dataset     string  `json:"dataset,omitempty"`
	Voltage     float64 `json:"voltage,omitempty"`
	BaselineAcc float64 `json:"baseline_acc,omitempty"`
	ImprovedAcc float64 `json:"improved_acc,omitempty"`
	BERth       float64 `json:"ber_th,omitempty"`
	EnergyMJ    float64 `json:"energy_mj,omitempty"`
	Savings     float64 `json:"savings,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
}

func runSuite(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd run", flag.ContinueOnError)
	var (
		neurons   = fs.String("neurons", "200,400", "comma-separated excitatory neuron counts")
		flavors   = fs.String("datasets", "mnist,fashion", "comma-separated dataset flavours (mnist, fashion)")
		voltage   = fs.Float64("voltage", 1.025, "approximate-DRAM supply voltage [V]")
		trainN    = fs.Int("train", 300, "training samples")
		testN     = fs.Int("test", 128, "test samples")
		epochs    = fs.Int("epochs", 2, "error-free training epochs")
		seed      = fs.Uint64("seed", 1, "random seed")
		workers   = fs.Int("workers", 0, "scheduler worker pool size (0 = GOMAXPROCS)")
		shardSpec = fs.String("shard", "", "run only slice i/m of the sweep (e.g. 1/2)")
		jsonOut   = fs.Bool("json", false, "emit JSON result records on stdout, timing records on stderr")
	)
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	shard, err := sched.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd run: %v\n", err)
		return 2
	}

	var sizes []int
	for _, tok := range strings.Split(*neurons, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n <= 0 {
			fmt.Fprintf(stderr, "sparkxd run: bad neuron count %q\n", tok)
			return 2
		}
		sizes = append(sizes, n)
	}
	var fls []sparkxd.Dataset
	for _, tok := range strings.Split(*flavors, ",") {
		fl, err := sparkxd.ParseDataset(strings.TrimSpace(tok))
		if err != nil {
			fmt.Fprintf(stderr, "sparkxd run: %v\n", err)
			return 2
		}
		fls = append(fls, fl)
	}

	s, err := sched.New(sched.Config{Workers: *workers, Shard: shard})
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd run: %v\n", err)
		return 2
	}
	type jobCfg struct {
		name    string
		neurons int
		flavor  sparkxd.Dataset
	}
	var cfgs []jobCfg
	for _, fl := range fls {
		for _, n := range sizes {
			cfgs = append(cfgs, jobCfg{
				name:    fmt.Sprintf("pipeline/%s/N%04d", fl, n),
				neurons: n,
				flavor:  fl,
			})
		}
	}
	for _, jc := range cfgs {
		// Larger networks dominate the runtime: use the neuron count as
		// the cost hint so big configurations start first.
		err := s.Add(sched.Job{Name: jc.name, Cost: float64(jc.neurons),
			Run: func() (any, error) {
				sys, err := sparkxd.New(
					sparkxd.WithNeurons(jc.neurons),
					sparkxd.WithDataset(jc.flavor),
					sparkxd.WithVoltage(*voltage),
					sparkxd.WithSampleBudget(*trainN, *testN),
					sparkxd.WithBaseEpochs(*epochs),
					sparkxd.WithSeed(*seed),
				)
				if err != nil {
					return nil, err
				}
				return sys.Pipeline().Run(ctx)
			}})
		if err != nil {
			fmt.Fprintf(stderr, "sparkxd run: %v\n", err)
			return 2
		}
	}

	reports, runErr := s.Run()
	byName := make(map[string]jobCfg, len(cfgs))
	for _, jc := range cfgs {
		byName[jc.name] = jc
	}

	if *jsonOut {
		out := json.NewEncoder(stdout)
		diag := json.NewEncoder(stderr)
		for _, rep := range reports {
			rec := pipelineRecord{Job: rep.Name}
			if rep.Err != nil {
				rec.Error = report.FirstLine(rep.Err.Error())
			} else if res, ok := rep.Value.(*sparkxd.Result); ok {
				jc := byName[rep.Name]
				rec.OK = true
				rec.Neurons = jc.neurons
				rec.Dataset = jc.flavor.String()
				rec.Voltage = *voltage
				rec.BaselineAcc = res.Improved.BaselineAcc
				rec.ImprovedAcc = res.Evaluation.Accuracy
				rec.BERth = res.Tolerance.BERth
				rec.EnergyMJ = res.Energy.SparkXD.TotalMJ
				rec.Savings = res.Energy.Savings
				rec.Speedup = res.Energy.Speedup
			}
			_ = out.Encode(rec)
		}
		for _, rep := range reports {
			_ = diag.Encode(struct {
				Job       string  `json:"job"`
				ElapsedMS float64 `json:"elapsed_ms"`
				Worker    int     `json:"worker"`
			}{rep.Name, float64(rep.Elapsed.Microseconds()) / 1000, rep.Worker})
		}
	} else {
		ordered := append([]sched.Report(nil), reports...)
		sort.Slice(ordered, func(a, b int) bool { return ordered[a].Name < ordered[b].Name })
		tb := report.NewTable(fmt.Sprintf("pipeline sweep @%.3fV (shard %s)", *voltage, shard),
			"configuration", "baseline acc", "improved acc", "BERth", "energy [mJ]", "savings", "speed-up")
		for _, rep := range ordered {
			if rep.Err != nil {
				tb.AddRow(rep.Name, "FAILED: "+report.FirstLine(rep.Err.Error()), "", "", "", "", "")
				continue
			}
			res := rep.Value.(*sparkxd.Result)
			tb.AddRow(rep.Name, report.Pct(res.Improved.BaselineAcc), report.Pct(res.Evaluation.Accuracy),
				fmt.Sprintf("%.0e", res.Tolerance.BERth), res.Energy.SparkXD.TotalMJ,
				report.Pct(res.Energy.Savings), fmt.Sprintf("%.3fx", res.Energy.Speedup))
		}
		tb.Render(stdout)
		for _, rep := range ordered {
			if rep.Err == nil {
				fmt.Fprintf(stderr, "timing: %-24s %8.1f ms (worker %d)\n",
					rep.Name, float64(rep.Elapsed.Microseconds())/1000, rep.Worker)
			}
		}
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "sparkxd run: %v\n", report.FirstLine(runErr.Error()))
		return 1
	}
	return 0
}

// runSweep drives Pipeline.Sweep: train (or resume) one model, then
// evaluate it over the scenario grid on the batched sweep engine. The
// -json report is byte-identical for any -workers value.
func runSweep(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd sweep", flag.ContinueOnError)
	var (
		neurons  = fs.Int("neurons", 400, "excitatory neurons")
		flavor   = fs.String("dataset", "mnist", "dataset flavour: mnist or fashion")
		voltages = fs.String("voltages", "", "comma-separated supply voltages (default: configured voltage)")
		bers     = fs.String("bers", "", "comma-separated BER thresholds (default: configured schedule)")
		models   = fs.String("models", "", "comma-separated error models (uniform,bitline,wordline,data-dependent)")
		policies = fs.String("policies", "", "comma-separated mapping policies (baseline,sparkxd)")
		axes     = addAxisFlags(fs)
		trainN   = fs.Int("train", 300, "training samples")
		testN    = fs.Int("test", 128, "test samples")
		epochs   = fs.Int("epochs", 2, "error-free training epochs")
		seed     = fs.Uint64("seed", 1, "random seed")
		workers  = fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		jsonOut  = fs.Bool("json", false, "emit the SweepReport as JSON on stdout")
		artDir   = fs.String("artifacts", "", "directory or store URL to persist the model and sweep report")
		resumeAt = fs.String("resume", "", "directory or store URL with a persisted improved model to sweep (skips training)")
		quiet    = fs.Bool("quiet", false, "suppress progress events on stderr")
	)
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	fl, err := sparkxd.ParseDataset(*flavor)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
		return 2
	}
	spec := sparkxd.SweepSpec{Workers: *workers}
	if spec.Voltages, err = parseFloatList(*voltages); err != nil {
		fmt.Fprintf(stderr, "sparkxd sweep: -voltages: %v\n", err)
		return 2
	}
	if spec.BERs, err = parseFloatList(*bers); err != nil {
		fmt.Fprintf(stderr, "sparkxd sweep: -bers: %v\n", err)
		return 2
	}
	for _, tok := range splitList(*models) {
		m, err := sparkxd.ParseErrorModel(tok)
		if err != nil {
			fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
			return 2
		}
		spec.ErrorModels = append(spec.ErrorModels, m)
	}
	for _, tok := range splitList(*policies) {
		pol, err := sparkxd.ParsePolicy(tok)
		if err != nil {
			fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
			return 2
		}
		spec.Policies = append(spec.Policies, pol)
	}
	if err := axes.parse(&spec); err != nil {
		fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
		return 2
	}

	opts := []sparkxd.Option{
		sparkxd.WithNeurons(*neurons),
		sparkxd.WithDataset(fl),
		sparkxd.WithSampleBudget(*trainN, *testN),
		sparkxd.WithBaseEpochs(*epochs),
		sparkxd.WithSeed(*seed),
	}
	if !*quiet && !*jsonOut {
		opts = append(opts, sparkxd.WithObserver(func(ev sparkxd.Event) {
			if ev.Phase == "start" || ev.Phase == "done" {
				fmt.Fprintf(stderr, "%s: %-8s %s\n", ev.Phase, ev.Stage, ev.Message)
			}
		}))
	}
	sys, err := sparkxd.New(opts...)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
		return 2
	}
	// Reject a malformed grid before spending time training.
	if err := sys.ValidateSweep(spec); err != nil {
		fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
		return 2
	}

	p := sys.Pipeline()
	want := sparkxd.TrainedModel{Neurons: *neurons, Dataset: fl.String(),
		TrainSamples: *trainN, TestSamples: *testN, Seed: *seed}
	if err := resume(p, *resumeAt, want, false, stderr); err != nil {
		fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
		return 1
	}
	if p.Improved == nil {
		// Train the same fault-aware improved model a -resume run loads,
		// so fresh and resumed sweeps evaluate comparable models.
		if _, err := p.Train(ctx); err != nil {
			fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
			return 1
		}
		if _, err := p.ImproveTolerance(ctx); err != nil {
			fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
			return 1
		}
	}
	rep, err := p.Sweep(ctx, spec)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
		return 1
	}
	// The swept model goes beside its report, so -resume sweeps it again.
	if err := persist(*artDir, map[string]any{"improved": p.Improved, "sweep": rep}); err != nil {
		fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "sparkxd sweep: %v\n", err)
			return 1
		}
		return 0
	}
	tb := report.NewTable(fmt.Sprintf("scenario sweep: N%d on %s (%d scenarios)", rep.Neurons, rep.Dataset, len(rep.Points)),
		"scenario", "eff. BERth", "safe", "flips", "accuracy", "energy [mJ]", "hit rate")
	for _, pt := range rep.Points {
		tb.AddRow(pt.Key, fmt.Sprintf("%.0e", pt.EffectiveBERth), pt.SafeSubarrays,
			pt.FlippedBits, report.Pct(pt.Accuracy), pt.EnergyMJ, report.Pct(pt.HitRate))
	}
	tb.Render(stdout)
	return 0
}

// splitList splits a comma-separated flag value, dropping empty tokens.
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// parseFloatList parses a comma-separated list of floats.
func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, tok := range splitList(s) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseIntList parses a comma-separated list of integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, tok := range splitList(s) {
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// axisFlags are the sweep axes beyond the paper's four, which sweep
// and loadgen both take: -bitwidths, -prune and -encoders.
type axisFlags struct{ bitwidths, prune, encoders *string }

// addAxisFlags declares the axis flags on fs.
func addAxisFlags(fs *flag.FlagSet) axisFlags {
	return axisFlags{
		bitwidths: fs.String("bitwidths", "", "comma-separated stored-weight bitwidths (16,32; default: configured quantization)"),
		prune:     fs.String("prune", "", "comma-separated prune levels in [0,1) (default: unpruned)"),
		encoders:  fs.String("encoders", "", "comma-separated spike encoders (rate,rate-det,ttfs,rank-order,phase,burst)"),
	}
}

// parse sets spec's bitwidth, prune-level and encoder axes from the
// flags; an empty flag leaves its axis at the configured default.
func (a axisFlags) parse(spec *sparkxd.SweepSpec) error {
	var err error
	if spec.Bitwidths, err = parseIntList(*a.bitwidths); err != nil {
		return fmt.Errorf("-bitwidths: %w", err)
	}
	if spec.PruneLevels, err = parseFloatList(*a.prune); err != nil {
		return fmt.Errorf("-prune: %w", err)
	}
	for _, tok := range splitList(*a.encoders) {
		enc, err := sparkxd.ParseEncoder(tok)
		if err != nil {
			return err
		}
		spec.Encoders = append(spec.Encoders, enc)
	}
	return nil
}

func runSingle(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd single", flag.ContinueOnError)
	var (
		neurons   = fs.Int("neurons", 400, "excitatory neurons (paper: 400/900/1600/2500/3600)")
		flavor    = fs.String("dataset", "mnist", "dataset flavour: mnist or fashion")
		voltage   = fs.Float64("voltage", 1.025, "approximate-DRAM supply voltage [V]")
		trainN    = fs.Int("train", 300, "training samples")
		testN     = fs.Int("test", 128, "test samples")
		epochs    = fs.Int("epochs", 2, "error-free training epochs")
		seed      = fs.Uint64("seed", 1, "random seed")
		quiet     = fs.Bool("quiet", false, "suppress progress events on stderr")
		artifacts = fs.String("artifacts", "", "directory or store URL to persist stage artifacts (model, tolerance, placement)")
		resumeAt  = fs.String("resume", "", "directory or store URL with persisted artifacts to resume from (skips training)")
	)
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	fl, err := sparkxd.ParseDataset(*flavor)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd: %v\n", err)
		return 2
	}

	opts := []sparkxd.Option{
		sparkxd.WithNeurons(*neurons),
		sparkxd.WithDataset(fl),
		sparkxd.WithVoltage(*voltage),
		sparkxd.WithSampleBudget(*trainN, *testN),
		sparkxd.WithBaseEpochs(*epochs),
		sparkxd.WithSeed(*seed),
	}
	if !*quiet {
		opts = append(opts, sparkxd.WithObserver(func(ev sparkxd.Event) {
			if ev.Phase == "progress" && ev.Epochs > 0 {
				fmt.Fprintf(stderr, "progress: %-8s %d/%d\n", ev.Stage, ev.Epoch, ev.Epochs)
			} else if ev.Phase == "done" {
				fmt.Fprintf(stderr, "done:     %-8s %s\n", ev.Stage, ev.Message)
			}
		}))
	}
	sys, err := sparkxd.New(opts...)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd: %v\n", err)
		return 2
	}

	p := sys.Pipeline()
	want := sparkxd.TrainedModel{Neurons: *neurons, Dataset: fl.String(),
		TrainSamples: *trainN, TestSamples: *testN, Seed: *seed}
	if err := resume(p, *resumeAt, want, true, stderr); err != nil {
		fmt.Fprintf(stderr, "sparkxd: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "SparkXD: N%d on %s, approximate DRAM at %.3f V\n", *neurons, fl, *voltage)
	res, err := p.Run(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd: %v\n", err)
		return 1
	}
	if err := persist(*artifacts, map[string]any{
		"improved":   res.Improved,
		"tolerance":  res.Tolerance,
		"placement":  res.Placement,
		"evaluation": res.Evaluation,
		"energy":     res.Energy,
	}); err != nil {
		fmt.Fprintf(stderr, "sparkxd: %v\n", err)
		return 1
	}

	tb := report.NewTable("pipeline result", "metric", "value")
	tb.AddRow("baseline accuracy (accurate DRAM)", report.Pct(res.Improved.BaselineAcc))
	tb.AddRow("improved accuracy (approx DRAM, SparkXD)", report.Pct(res.Evaluation.Accuracy))
	tb.AddRow("maximum tolerable BER", fmt.Sprintf("%.0e", res.Tolerance.BERth))
	tb.AddRow("DRAM energy, baseline @1.350V", fmt.Sprintf("%.4f mJ", res.Energy.Baseline.TotalMJ))
	tb.AddRow("DRAM energy, SparkXD", fmt.Sprintf("%.4f mJ @%.3fV", res.Energy.SparkXD.TotalMJ, res.Energy.SparkXD.Voltage))
	tb.AddRow("DRAM energy savings", report.Pct(res.Energy.Savings))
	tb.AddRow("speed-up (mapping effect)", fmt.Sprintf("%.3fx", res.Energy.Speedup))
	tb.AddRow("row-buffer hit rate (SparkXD)", report.Pct(res.Energy.SparkXD.HitRate))
	tb.Render(stdout)

	curve := report.NewTable("error-tolerance curve of the improved model", "BER", "accuracy")
	for _, pt := range res.Tolerance.Curve {
		curve.AddRow(fmt.Sprintf("%.0e", pt.BER), report.Pct(pt.Acc))
	}
	curve.Render(stdout)
	return 0
}

// An -artifacts location is a content-addressed store plus a manifest
// mapping stage roles ("improved", "tolerance", ...) to the store keys
// of the latest run, so -resume can find "the improved model" without
// knowing its content hash. A directory keeps the manifest in
// manifest.json; a remote store (`sparkxd store serve`) keeps it behind
// GET/PUT /v1/manifest, merged server-side.
const manifestName = "manifest.json"

// writeManifest merges roles into the location's manifest: roles
// persisted by earlier runs (e.g. `single -artifacts` before a
// `sweep -artifacts` into the same location) keep their entries
// unless this run re-recorded them. For a remote store the merge is
// done by the server (one writer, mutex-guarded), so this just PUTs the
// delta.
func writeManifest(location string, roles map[string]sparkxd.ArtifactKey) error {
	if sparkxd.IsStoreURL(location) {
		return putRemoteManifest(location, roles)
	}
	merged, err := readManifest(location)
	if err != nil {
		return err
	}
	if merged == nil {
		merged = make(map[string]sparkxd.ArtifactKey, len(roles))
	}
	for role, key := range roles {
		merged[role] = key
	}
	b, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(location, manifestName), append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	return nil
}

// readManifest loads the role -> key map; (nil, nil) when the location
// has no manifest (nothing persisted there yet).
func readManifest(location string) (map[string]sparkxd.ArtifactKey, error) {
	if sparkxd.IsStoreURL(location) {
		return getRemoteManifest(location)
	}
	b, err := os.ReadFile(filepath.Join(location, manifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var roles map[string]sparkxd.ArtifactKey
	if err := json.Unmarshal(b, &roles); err != nil {
		return nil, fmt.Errorf("read manifest %s: %w", filepath.Join(location, manifestName), err)
	}
	return roles, nil
}

// manifestURL derives the manifest endpoint of a remote store base URL.
func manifestURL(base string) string {
	return strings.TrimRight(base, "/") + "/v1/manifest"
}

// getRemoteManifest fetches the role map from a store server; a 404
// means nothing has been persisted there yet.
func getRemoteManifest(base string) (map[string]sparkxd.ArtifactKey, error) {
	resp, err := http.Get(manifestURL(base))
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("read manifest %s: server returned %s", manifestURL(base), resp.Status)
	}
	var roles map[string]sparkxd.ArtifactKey
	if err := json.NewDecoder(resp.Body).Decode(&roles); err != nil {
		return nil, fmt.Errorf("read manifest %s: %w", manifestURL(base), err)
	}
	return roles, nil
}

// putRemoteManifest sends a role delta to a store server, which merges
// it into the stored manifest.
func putRemoteManifest(base string, roles map[string]sparkxd.ArtifactKey) error {
	b, err := json.Marshal(roles)
	if err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	req, err := http.NewRequest(http.MethodPut, manifestURL(base), bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("write manifest %s: server returned %s", manifestURL(base), resp.Status)
	}
	return nil
}

// resume loads the improved model that location's manifest records
// into p, and with tolerance also the tolerance report stored beside
// it: that report is only reusable together with the model it was
// measured on, so it is never resumed alone. An empty location, or one
// with no model persisted yet, leaves p as it is. A corrupt artifact or
// a model that does not match want's neurons, dataset, sample budgets
// and seed is an error — silently computing results from a mismatched
// checkpoint would be worse than failing.
func resume(p *sparkxd.Pipeline, location string, want sparkxd.TrainedModel, tolerance bool, stderr io.Writer) error {
	if location == "" {
		return nil
	}
	roles, err := readManifest(location)
	if err != nil {
		return err
	}
	key, ok := roles["improved"]
	if !ok {
		return nil
	}
	st, err := sparkxd.OpenStore(location)
	if err != nil {
		return err
	}
	m, err := sparkxd.GetTrainedModel(st, key)
	switch {
	case err != nil:
		return fmt.Errorf("resume: %w", err)
	case m.Neurons != want.Neurons:
		return fmt.Errorf("resume: %s was trained with %d neurons, but -neurons is %d", key, m.Neurons, want.Neurons)
	case m.Dataset != "" && m.Dataset != want.Dataset:
		return fmt.Errorf("resume: %s was trained on %q, but -dataset is %q", key, m.Dataset, want.Dataset)
	case m.TrainSamples != 0 && (m.TrainSamples != want.TrainSamples || m.TestSamples != want.TestSamples):
		return fmt.Errorf("resume: %s was measured with -train %d -test %d, but got -train %d -test %d",
			key, m.TrainSamples, m.TestSamples, want.TrainSamples, want.TestSamples)
	case m.Seed != want.Seed:
		return fmt.Errorf("resume: %s was trained with -seed %d, but got -seed %d", key, m.Seed, want.Seed)
	}
	p.Improved = m
	fmt.Fprintf(stderr, "resume: loaded improved model (%s, N%d)\n", m.Dataset, m.Neurons)
	key, ok = roles["tolerance"]
	if !tolerance || !ok {
		return nil
	}
	if p.Tolerance, err = sparkxd.GetToleranceReport(st, key); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	fmt.Fprintf(stderr, "resume: loaded tolerance report (BERth %.0e)\n", p.Tolerance.BERth)
	return nil
}

// persist puts each role's artifact into the content-addressed store at
// location and merges the roles' keys into the location's manifest. An
// empty location persists nothing.
func persist(location string, arts map[string]any) error {
	if location == "" {
		return nil
	}
	st, err := sparkxd.OpenStore(location)
	if err != nil {
		return err
	}
	roles := make(map[string]sparkxd.ArtifactKey, len(arts))
	for role, v := range arts {
		if roles[role], err = sparkxd.PutArtifact(st, v); err != nil {
			return fmt.Errorf("save %s: %w", role, err)
		}
	}
	return writeManifest(location, roles)
}
