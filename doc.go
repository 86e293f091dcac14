// Package sparkxd is the public SDK of a from-scratch Go reproduction
// of "SparkXD: A Framework for Resilient and Energy-Efficient Spiking
// Neural Network Inference using Approximate DRAM" (Putra, Hanif,
// Shafique — DAC 2021).
//
// Build a System with New and functional options, then drive the staged
// Pipeline: Train -> ImproveTolerance (Algorithm 1) -> AnalyzeTolerance
// (the maximum-tolerable-BER search) -> Map (Algorithm 2) ->
// EvaluateUnderErrors -> EnergyReport. Every stage takes a
// context.Context (cancellation is checked inside the epoch and sample
// loops), returns a typed artifact that round-trips through JSON
// (TrainedModel, ToleranceReport, Placement, Evaluation), and can be run
// independently, composed by Pipeline.Run, or resumed from a persisted
// artifact. Progress arrives as structured events through WithObserver
// instead of polling.
//
//	sys, _ := sparkxd.New(sparkxd.WithNeurons(400), sparkxd.WithVoltage(sparkxd.V1025))
//	p := sys.Pipeline()
//	res, err := p.Run(ctx)
//
// Artifacts persist in content-addressed stores (OpenStore,
// PutArtifact, Get*): every value is wrapped in a typed envelope and
// addressed by "<kind>/<sha256-of-canonical-json>", so writes are
// idempotent and reads integrity-checked. The same scheme gives jobs
// deterministic identities: a JobSpec (pipeline stage or sweep grid
// plus a ConfigSpec) hashes to its job ID, which the `sparkxd serve`
// HTTP service and the sparkxd/client package use for idempotent
// submit/poll/stream execution against shared warm engines (DESIGN.md
// §8).
//
// See the package Example for the staged persist/resume flow through an
// artifact store. The algorithmic kernel lives under internal/ (DESIGN.md
// has the system inventory), runnable binaries under cmd/, usage examples
// under examples/, and the gated kernel benchmarks in
// kernel_bench_test.go.
package sparkxd
