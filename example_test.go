package sparkxd_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"sparkxd"
)

// Example walks the staged public API end to end: configure a System,
// run the training stages, persist the resumable artifacts in a store,
// then resume mapping and evaluation from it in a fresh pipeline — no
// retraining.
func Example() {
	sys, err := sparkxd.New(
		sparkxd.WithNeurons(40),
		sparkxd.WithSampleBudget(60, 30),
		sparkxd.WithBaseEpochs(1),
		sparkxd.WithBERSchedule(1e-5, 1e-3),
		sparkxd.WithVoltage(sparkxd.V1025),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Stage by stage: train, harden, analyze.
	p := sys.Pipeline()
	if _, err = p.Train(ctx); err != nil {
		log.Fatal(err)
	}
	improved, err := p.ImproveTolerance(ctx)
	if err != nil {
		log.Fatal(err)
	}
	tolerance, err := p.AnalyzeTolerance(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Persist the artifacts a deployment would ship in a content-addressed
	// store (a directory here; a store URL works the same way).
	dir, err := os.MkdirTemp("", "sparkxd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := sparkxd.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	modelKey, err := sparkxd.PutArtifact(st, improved)
	if err != nil {
		log.Fatal(err)
	}
	tolKey, err := sparkxd.PutArtifact(st, tolerance)
	if err != nil {
		log.Fatal(err)
	}

	// Resume in a fresh pipeline from the stored artifacts: Map,
	// EvaluateUnderErrors, and EnergyReport run without any retraining.
	model, err := sparkxd.GetTrainedModel(st, modelKey)
	if err != nil {
		log.Fatal(err)
	}
	tol, err := sparkxd.GetToleranceReport(st, tolKey)
	if err != nil {
		log.Fatal(err)
	}
	resumed := sys.Pipeline()
	resumed.Improved = model
	resumed.Tolerance = tol
	if _, err := resumed.MapAdaptive(ctx); err != nil {
		log.Fatal(err)
	}
	ev, err := resumed.EvaluateUnderErrors(ctx)
	if err != nil {
		log.Fatal(err)
	}
	energy, err := resumed.EnergyReport(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model stage: %s\n", model.Stage)
	fmt.Printf("tolerance found: %t\n", tol.BERth > 0)
	fmt.Printf("evaluated under errors: %t\n", ev.Accuracy >= 0 && ev.Accuracy <= 1)
	fmt.Printf("energy saved: %t\n", energy.Savings > 0)
	// Output:
	// model stage: improved
	// tolerance found: true
	// evaluated under errors: true
	// energy saved: true
}
