package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// The dispatcher contract, table-driven: unknown subcommands and bad
// flags print usage to stderr and exit 2; help requests print usage to
// stdout and exit 0 — uniformly across subcommands.
func TestDispatcher(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string // substring of stderr ("" = no requirement)
		wantStdout string // substring of stdout ("" = no requirement)
	}{
		{"no args", nil, 2, "Usage:", ""},
		{"unknown command", []string{"bogus"}, 2, `unknown command "bogus"`, ""},
		{"unknown command usage", []string{"bogus"}, 2, "Usage:", ""},
		{"leading flag", []string{"-neurons", "40"}, 2, `unknown command "-neurons"`, ""},
		{"help", []string{"help"}, 0, "", "Usage:"},
		{"-h", []string{"-h"}, 0, "", "Usage:"},
		{"--help", []string{"--help"}, 0, "", "Usage:"},
		{"single -h", []string{"single", "-h"}, 0, "-neurons", ""},
		{"single bad flag", []string{"single", "-no-such-flag"}, 2, "flag provided but not defined", ""},
		{"run bad flag", []string{"run", "-no-such-flag"}, 2, "flag provided but not defined", ""},
		{"run bad shard", []string{"run", "-shard", "nope"}, 2, "shard", ""},
		{"sweep -h", []string{"sweep", "-h"}, 0, "-voltages", ""},
		{"sweep bad dataset", []string{"sweep", "-dataset", "imagenet"}, 2, "valid: mnist, fashion", ""},
		{"sweep bad policy", []string{"sweep", "-policies", "rr"}, 2, "valid: baseline, sparkxd", ""},
		{"serve -h", []string{"serve", "-h"}, 0, "-addr", ""},
		{"serve bad flag", []string{"serve", "-no-such-flag"}, 2, "flag provided but not defined", ""},
		{"serve bad dispatch", []string{"serve", "-dispatch", "quantum"}, 2, "unknown dispatch mode", ""},
		{"worker -h", []string{"worker", "-h"}, 0, "-join", ""},
		{"worker bad flag", []string{"worker", "-no-such-flag"}, 2, "flag provided but not defined", ""},
		{"worker empty join", []string{"worker", "-join", ""}, 2, "empty coordinator URL", ""},
		{"job no subcommand", []string{"job"}, 2, "Usage:", ""},
		{"job unknown subcommand", []string{"job", "bogus"}, 2, `unknown command "bogus"`, ""},
		{"job help", []string{"job", "help"}, 0, "", "Usage:"},
		{"job submit -h", []string{"job", "submit", "-h"}, 0, "-spec", ""},
		{"store no subcommand", []string{"store"}, 2, "missing subcommand", ""},
		{"store unknown subcommand", []string{"store", "bogus"}, 2, `unknown subcommand "bogus"`, ""},
		{"store help", []string{"store", "help"}, 0, "", "store serve"},
		{"store serve -h", []string{"store", "serve", "-h"}, 0, "-addr", ""},
		{"store serve bad flag", []string{"store", "serve", "-no-such-flag"}, 2, "flag provided but not defined", ""},
		{"job status missing id", []string{"job", "status"}, 2, "-id is required", ""},
		{"job wait missing id", []string{"job", "wait"}, 2, "-id is required", ""},
		{"job fetch missing key", []string{"job", "fetch"}, 2, "-key is required", ""},
		{"serve bad log level", []string{"serve", "-log-level", "nope"}, 2, "unknown log level", ""},
		{"worker bad log level", []string{"worker", "-log-level", "nope"}, 2, "unknown log level", ""},
		{"store serve bad log level", []string{"store", "serve", "-log-level", "nope"}, 2, "unknown log level", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("run(%q) = %d, want %d\nstderr: %s", tc.args, code, tc.wantCode, stderr.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("run(%q) stderr %q does not contain %q", tc.args, stderr.String(), tc.wantStderr)
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("run(%q) stdout %q does not contain %q", tc.args, stdout.String(), tc.wantStdout)
			}
		})
	}
}

// Usage goes to stderr (not stdout) for errors, and to stdout for
// explicit help — so piping the output of a successful help request
// works while a typo'd invocation stays visible on a terminal.
func TestUsageStream(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("error path wrote to stdout: %q", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"help"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if stderr.Len() != 0 {
		t.Errorf("help path wrote to stderr: %q", stderr.String())
	}
}
