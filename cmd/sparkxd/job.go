package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"sparkxd"
	"sparkxd/client"
)

func jobUsage(w io.Writer) {
	fmt.Fprintf(w, `sparkxd job — talk to a running sparkxd job service

Usage:
  sparkxd job <command> -addr http://HOST:PORT [flags]

Commands:
  submit    submit a JobSpec (JSON from -spec file, or stdin with "-")
  status    print one job's status
  wait      poll a job to completion (optionally print one artifact)
  events    stream a job's progress events as JSON lines
  fetch     print a stored artifact's payload by key

Run "sparkxd job <command> -h" for the command's flags.
`)
}

// runJob dispatches the client-side job subcommands.
func runJob(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		jobUsage(stderr)
		return 2
	}
	switch args[0] {
	case "submit":
		return runJobSubmit(ctx, args[1:], stdout, stderr)
	case "status":
		return runJobStatus(ctx, args[1:], stdout, stderr)
	case "wait":
		return runJobWait(ctx, args[1:], stdout, stderr)
	case "events":
		return runJobEvents(ctx, args[1:], stdout, stderr)
	case "fetch":
		return runJobFetch(ctx, args[1:], stdout, stderr)
	case "help", "-h", "--help":
		jobUsage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "sparkxd job: unknown command %q\n\n", args[0])
		jobUsage(stderr)
		return 2
	}
}

// addAddrFlag declares -addr, the job service a client command talks
// to: job submit|status|wait|events|fetch, trace and loadgen.
func addAddrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", "http://127.0.0.1:8080", "job service base URL")
}

// dial builds the client for -addr; an error prints after prog.
func dial(prog, addr string, stderr io.Writer) (*client.Client, bool) {
	c, err := client.New(addr)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return nil, false
	}
	return c, true
}

// runJobCall is the path job status, wait, events and fetch share:
// declare -addr on fs, parse args, require the flag named need, dial
// -addr (a dial error prints after prog) and return call's exit code.
func runJobCall(fs *flag.FlagSet, args []string, need, prog string, stderr io.Writer, call func(*client.Client) int) int {
	addr := addAddrFlag(fs)
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	if fs.Lookup(need).Value.String() == "" {
		fmt.Fprintf(stderr, "%s: -%s is required\n", fs.Name(), need)
		return 2
	}
	c, ok := dial(prog, *addr, stderr)
	if !ok {
		return 2
	}
	return call(c)
}

func runJobSubmit(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd job submit", flag.ContinueOnError)
	var (
		addr   = addAddrFlag(fs)
		spec   = fs.String("spec", "-", `JobSpec JSON file ("-" = stdin)`)
		idOnly = fs.Bool("id-only", false, "print only the job ID")
	)
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	var (
		b   []byte
		err error
	)
	if *spec == "-" {
		b, err = io.ReadAll(os.Stdin)
	} else {
		b, err = os.ReadFile(*spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd job submit: %v\n", err)
		return 1
	}
	var js sparkxd.JobSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		fmt.Fprintf(stderr, "sparkxd job submit: decode spec: %v\n", err)
		return 2
	}
	c, ok := dial("sparkxd job", *addr, stderr)
	if !ok {
		return 2
	}
	status, err := c.Submit(ctx, js)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd job submit: %v\n", err)
		return 1
	}
	if *idOnly {
		fmt.Fprintln(stdout, status.ID)
		return 0
	}
	printJSON(stdout, status)
	return 0
}

func runJobStatus(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd job status", flag.ContinueOnError)
	id := fs.String("id", "", "job ID")
	return runJobCall(fs, args, "id", "sparkxd job", stderr, func(c *client.Client) int {
		status, err := c.Job(ctx, *id)
		if err != nil {
			fmt.Fprintf(stderr, "sparkxd job status: %v\n", err)
			return 1
		}
		printJSON(stdout, status)
		return 0
	})
}

func runJobWait(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd job wait", flag.ContinueOnError)
	var (
		id      = fs.String("id", "", "job ID")
		role    = fs.String("artifact", "", `on success, print this artifact's payload instead of the status (e.g. "sweep")`)
		poll    = fs.Duration("poll", 100*time.Millisecond, "initial status poll interval (backs off exponentially)")
		maxPoll = fs.Duration("max-poll", 2*time.Second, "poll interval backoff cap")
	)
	return runJobCall(fs, args, "id", "sparkxd job wait", stderr, func(c *client.Client) int {
		status, err := c.Wait(ctx, *id, client.WaitPollInterval(*poll), client.WaitMaxInterval(*maxPoll))
		if err != nil {
			fmt.Fprintf(stderr, "sparkxd job wait: %v\n", err)
			return 1
		}
		if *role == "" {
			printJSON(stdout, status)
			return 0
		}
		key, ok := status.Artifacts[*role]
		if !ok {
			fmt.Fprintf(stderr, "sparkxd job wait: job %s produced no %q artifact (have: %v)\n",
				*id, *role, artifactRoles(status))
			return 1
		}
		return printArtifactPayload(ctx, c, key, stdout, stderr)
	})
}

func runJobEvents(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd job events", flag.ContinueOnError)
	id := fs.String("id", "", "job ID")
	return runJobCall(fs, args, "id", "sparkxd job", stderr, func(c *client.Client) int {
		enc := json.NewEncoder(stdout)
		if err := c.Events(ctx, *id, func(ev sparkxd.Event) error { return enc.Encode(ev) }); err != nil {
			fmt.Fprintf(stderr, "sparkxd job events: %v\n", err)
			return 1
		}
		return 0
	})
}

func runJobFetch(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd job fetch", flag.ContinueOnError)
	key := fs.String("key", "", "artifact key (kind/sha256)")
	return runJobCall(fs, args, "key", "sparkxd job", stderr, func(c *client.Client) int {
		return printArtifactPayload(ctx, c, sparkxd.ArtifactKey(*key), stdout, stderr)
	})
}

// printArtifactPayload fetches one artifact (integrity-verified) and
// prints its payload as indented JSON — byte-identical to what the
// in-process commands emit for the same artifact value, so fetched
// results can be `cmp`-ed against direct runs.
func printArtifactPayload(ctx context.Context, c *client.Client, key sparkxd.ArtifactKey, stdout, stderr io.Writer) int {
	env, err := c.Artifact(ctx, key)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd job: %v\n", err)
		return 1
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, env.Payload, "", "  "); err != nil {
		fmt.Fprintf(stderr, "sparkxd job: %v\n", err)
		return 1
	}
	buf.WriteByte('\n')
	if _, err := stdout.Write(buf.Bytes()); err != nil {
		fmt.Fprintf(stderr, "sparkxd job: %v\n", err)
		return 1
	}
	return 0
}

// printJSON writes v as indented JSON.
func printJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// artifactRoles lists a status's artifact roles for error messages.
func artifactRoles(status *sparkxd.JobStatus) []string {
	roles := make([]string, 0, len(status.Artifacts))
	for role := range status.Artifacts {
		roles = append(roles, role)
	}
	sort.Strings(roles)
	return roles
}
