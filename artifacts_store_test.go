// Tests of the artifact persistence surface: content-addressed store
// round trips through the public helpers, and typed failures for
// missing keys, wrong kinds and damaged files.
package sparkxd_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sparkxd"
)

// Store round trip at the SDK level: Put/Get equality and key stability
// across repeated puts and across store instances over the same dir.
func TestArtifactStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := sparkxd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := &sparkxd.SweepReport{
		Dataset: "mnist", Neurons: 50, BaselineAcc: 0.875,
		Voltages: []float64{1.1}, BERs: []float64{1e-5},
		ErrorModels: []sparkxd.ErrorModelName{"uniform"}, Policies: []sparkxd.Policy{sparkxd.PolicySparkXD},
		Points: []sparkxd.SweepPoint{{Key: "v1.1000/ber1e-05/uniform/sparkxd", Voltage: 1.1, BER: 1e-5,
			ErrorModel: "uniform", Policy: sparkxd.PolicySparkXD, Accuracy: 0.75}},
	}
	key, err := sparkxd.PutArtifact(st, rep)
	if err != nil {
		t.Fatal(err)
	}
	if key.Kind() != sparkxd.KindSweepReport {
		t.Errorf("key kind = %q", key.Kind())
	}
	key2, err := sparkxd.PutArtifact(st, rep)
	if err != nil {
		t.Fatal(err)
	}
	if key != key2 {
		t.Errorf("content address unstable: %s vs %s", key, key2)
	}

	// A fresh store handle over the same directory resolves the key.
	st2, err := sparkxd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sparkxd.GetSweepReport(st2, key)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("round trip mismatch:\n%s\n%s", a, b)
	}

	// Typed getters reject keys of the wrong kind and missing keys.
	if _, err := sparkxd.GetTrainedModel(st2, key); !errors.Is(err, sparkxd.ErrCorruptArtifact) {
		t.Errorf("GetTrainedModel on a sweep key: want ErrCorruptArtifact, got %v", err)
	}
	missing := sparkxd.ArtifactKey(sparkxd.KindSweepReport + "/0000000000000000000000000000000000000000000000000000000000000000")
	if _, err := sparkxd.GetSweepReport(st2, missing); !errors.Is(err, sparkxd.ErrMissingArtifact) {
		t.Errorf("missing key: want ErrMissingArtifact, got %v", err)
	}
}

// A stored file damaged on disk must come back as ErrCorruptArtifact,
// never as a zero-valued artifact, with the JSON cause still reachable
// through errors.As.
func TestArtifactStoreCorruptFile(t *testing.T) {
	dir := t.TempDir()
	st, err := sparkxd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sparkxd.PutArtifact(st, &sparkxd.ToleranceReport{BaselineAcc: 0.9, BERth: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sparkxd.GetToleranceReport(st, key); err != nil {
		t.Fatalf("intact file: %v", err)
	}
	path := filepath.Join(dir, key.Kind(), key.Hash()+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = sparkxd.GetToleranceReport(st, key)
	if !errors.Is(err, sparkxd.ErrCorruptArtifact) {
		t.Errorf("damaged file: want ErrCorruptArtifact, got %v", err)
	}
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		t.Errorf("damaged file: want *json.SyntaxError via errors.As, got %v", err)
	}
}
