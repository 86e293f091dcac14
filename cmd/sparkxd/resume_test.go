package main

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"sparkxd"
)

// tinyRun is a configuration that trains in a fraction of a second.
var tinyRun = []string{"-neurons", "40", "-train", "60", "-test", "30", "-epochs", "1"}

// runCLI runs the CLI in process and returns its exit code, stdout and
// stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// manifestRoles lists the roles a location's manifest records.
func manifestRoles(t *testing.T, location string) string {
	t.Helper()
	roles, err := readManifest(location)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for role := range roles {
		names = append(names, role)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// stripBaseEpochs rewrites location's improved model as one persisted
// before TrainedModel recorded its base epochs.
func stripBaseEpochs(t *testing.T, location string) {
	t.Helper()
	roles, err := readManifest(location)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sparkxd.OpenStore(location)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sparkxd.GetTrainedModel(st, roles["improved"])
	if err != nil {
		t.Fatal(err)
	}
	m.BaseEpochs = 0
	if err := persist(location, map[string]any{"improved": m}); err != nil {
		t.Fatal(err)
	}
}

// single and sweep persist a run into an artifact location and resume
// it from there, whether the location is a directory or a store server.
func TestPersistAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	locations := []struct {
		name string
		open func(t *testing.T) string
	}{
		{"dir", func(t *testing.T) string { return t.TempDir() }},
		{"store-url", func(t *testing.T) string {
			ctx, cancel := context.WithCancel(context.Background())
			base, codeCh := startStoreServe(t, ctx, "-store", t.TempDir())
			t.Cleanup(func() { cancel(); <-codeCh })
			return base
		}},
	}
	for _, lc := range locations {
		t.Run(lc.name, func(t *testing.T) {
			loc, loc2 := lc.open(t), lc.open(t)

			code, fresh, stderr := runCLI(t, append([]string{"single", "-artifacts", loc}, tinyRun...)...)
			if code != 0 || strings.Contains(stderr, "resume:") {
				t.Fatalf("single -artifacts: exit %d\nstderr: %s", code, stderr)
			}
			if got, want := manifestRoles(t, loc), "energy,evaluation,improved,placement,tolerance"; got != want {
				t.Errorf("single manifest roles = %s, want %s", got, want)
			}
			code, resumed, stderr := runCLI(t, append([]string{"single", "-resume", loc}, tinyRun...)...)
			if code != 0 {
				t.Fatalf("single -resume: exit %d\nstderr: %s", code, stderr)
			}
			if resumed != fresh {
				t.Errorf("resumed stdout differs from the fresh run:\n%s\nwant:\n%s", resumed, fresh)
			}
			for _, line := range []string{"resume: loaded improved model (mnist, N40)\n", "resume: loaded tolerance report (BERth "} {
				if !strings.Contains(stderr, line) {
					t.Errorf("single -resume stderr lacks %q:\n%s", line, stderr)
				}
			}
			code, _, stderr = runCLI(t, "single", "-neurons", "50", "-train", "60", "-test", "30", "-epochs", "1", "-resume", loc)
			if code != 1 || !strings.Contains(stderr, "was trained with 40 neurons, but -neurons is 50") {
				t.Errorf("single -neurons 50 -resume: exit %d, want 1 naming 40 neurons\nstderr: %s", code, stderr)
			}
			// The last -epochs wins, so epochs2 is tinyRun trained for two.
			epochs2 := append(append([]string{}, tinyRun...), "-epochs", "2")
			code, _, stderr = runCLI(t, append([]string{"single", "-resume", loc}, epochs2...)...)
			if code != 1 || !strings.Contains(stderr, "was trained for -epochs 1, but got -epochs 2") {
				t.Errorf("single -epochs 2 -resume: exit %d, want 1 naming both epoch counts\nstderr: %s", code, stderr)
			}

			code, fresh, stderr = runCLI(t, append([]string{"sweep", "-json", "-artifacts", loc2}, tinyRun...)...)
			if code != 0 || stderr != "" {
				t.Fatalf("sweep -artifacts: exit %d\nstderr: %s", code, stderr)
			}
			if got, want := manifestRoles(t, loc2), "improved,sweep"; got != want {
				t.Errorf("sweep manifest roles = %s, want %s", got, want)
			}
			code, resumed, stderr = runCLI(t, append([]string{"sweep", "-json", "-resume", loc2}, tinyRun...)...)
			if code != 0 {
				t.Fatalf("sweep -resume: exit %d\nstderr: %s", code, stderr)
			}
			if resumed != fresh {
				t.Errorf("resumed sweep report differs from the fresh one:\n%s\nwant:\n%s", resumed, fresh)
			}
			// The model was loaded, so nothing was trained.
			if want := "resume: loaded improved model (mnist, N40)\n"; stderr != want {
				t.Errorf("sweep -resume stderr = %q, want %q", stderr, want)
			}
			code, _, stderr = runCLI(t, append([]string{"sweep", "-json", "-resume", loc2}, epochs2...)...)
			if code != 1 || !strings.Contains(stderr, "was trained for -epochs 1, but got -epochs 2") {
				t.Errorf("sweep -epochs 2 -resume: exit %d, want 1 naming both epoch counts\nstderr: %s", code, stderr)
			}
			// A model persisted before the epoch count was recorded
			// resumes under any -epochs.
			stripBaseEpochs(t, loc2)
			code, _, stderr = runCLI(t, append([]string{"sweep", "-json", "-resume", loc2}, epochs2...)...)
			if want := "resume: loaded improved model (mnist, N40)\n"; code != 0 || stderr != want {
				t.Errorf("sweep -epochs 2 -resume of a model without epochs: exit %d, stderr %q, want 0 and %q", code, stderr, want)
			}

			// A sweep of another seed into loc replaces the improved
			// model, so the reports measured on single's model leave the
			// manifest, and resuming that seed's single run measures its
			// own tolerance instead of loading the stale report.
			seed2 := append([]string{"-seed", "2"}, tinyRun...)
			if code, _, stderr := runCLI(t, append([]string{"sweep", "-json", "-artifacts", loc}, seed2...)...); code != 0 {
				t.Fatalf("sweep -seed 2 -artifacts: exit %d\nstderr: %s", code, stderr)
			}
			if got, want := manifestRoles(t, loc), "improved,sweep"; got != want {
				t.Errorf("manifest roles after a sweep of another model = %s, want %s", got, want)
			}
			code, fresh, _ = runCLI(t, append([]string{"single"}, seed2...)...)
			code2, resumed, stderr := runCLI(t, append([]string{"single", "-resume", loc}, seed2...)...)
			if code2 != code || resumed != fresh {
				t.Errorf("single -seed 2 -resume: exit %d, stdout:\n%s\nwant exit %d, the fresh run's:\n%s", code2, resumed, code, fresh)
			}
			if want := "resume: loaded improved model (mnist, N40)\n"; !strings.Contains(stderr, want) || strings.Contains(stderr, "tolerance report") {
				t.Errorf("single -seed 2 -resume stderr should load only the model:\n%s", stderr)
			}
		})
	}
}
