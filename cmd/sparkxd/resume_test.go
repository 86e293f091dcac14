package main

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"
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
		})
	}
}
