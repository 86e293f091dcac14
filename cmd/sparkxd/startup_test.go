package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

// startCLI runs the CLI with args until ctx ends and waits for its
// first n lines on stdout. It returns those lines and the channel that
// receives the exit code.
func startCLI(t *testing.T, ctx context.Context, n int, args ...string) ([]string, <-chan int) {
	t.Helper()
	var stdout, stderr syncBuffer
	codeCh := make(chan int, 1)
	go func() { codeCh <- run(ctx, args, &stdout, &stderr) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if lines := strings.SplitAfter(stdout.String(), "\n"); len(lines) > n {
			for i := range lines[:n] {
				lines[i] = strings.TrimSuffix(lines[i], "\n")
			}
			return lines[:n], codeCh
		}
		if time.Now().After(deadline) {
			t.Fatalf("%q printed %d lines, want %d\nstdout: %s\nstderr: %s", args, strings.Count(stdout.String(), "\n"), n, stdout.String(), stderr.String())
		}
		select {
		case code := <-codeCh:
			t.Fatalf("%q exited early with %d\nstdout: %s\nstderr: %s", args, code, stdout.String(), stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// hostPort matches the http://HOST:PORT a startup line announces.
var hostPort = regexp.MustCompile(`http://(127\.0\.0\.1:[0-9]+)`)

// readStartup matches a command's startup lines against patterns, in
// which ADDR stands for one http://HOST:PORT and NAME for one word, and
// returns the HOST:PORT of every ADDR in order.
func readStartup(t *testing.T, cmd string, lines []string, patterns ...string) []string {
	t.Helper()
	var addrs []string
	for i, pat := range patterns {
		pat = strings.NewReplacer("ADDR", `http://127\.0\.0\.1:[0-9]+`, "NAME", `\S+`).Replace(regexp.QuoteMeta(pat))
		if !regexp.MustCompile("^" + pat + "$").MatchString(lines[i]) {
			t.Fatalf("%s startup line %d = %q, want %q", cmd, i+1, lines[i], patterns[i])
		}
		if m := hostPort.FindStringSubmatch(lines[i]); m != nil {
			addrs = append(addrs, m[1])
		}
	}
	return addrs
}

// get fetches url and returns its body, failing the test on a transport
// error or a status other than 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s\n%s", url, resp.Status, b)
	}
	return string(b)
}

// stopCLI cancels a command's context, checks that it exits 0, and then
// that none of its listeners accepts a connection.
func stopCLI(t *testing.T, cmd string, cancel context.CancelFunc, codeCh <-chan int, addrs ...string) {
	t.Helper()
	cancel()
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Errorf("%s exited %d after cancellation, want 0", cmd, code)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not exit after cancellation", cmd)
	}
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("%s: %s still accepts connections after exit", cmd, addr)
		}
	}
}

// The serving commands start through one path: each announces its
// listeners on stdout, serves its API, debug and metrics routes, exits
// 0 when its context ends, and leaves no listener behind.
func TestServingCommandsStartAndStop(t *testing.T) {
	serveCtx, cancelServe := context.WithCancel(context.Background())
	defer cancelServe()
	lines, serveDone := startCLI(t, serveCtx, 3, "serve", "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet")
	serveAddrs := readStartup(t, "serve", lines,
		"debug on ADDR/debug/pprof/",
		"listening on ADDR",
		"dispatch local: join workers with `sparkxd worker -join ADDR`")
	if serveAddrs[1] != serveAddrs[2] {
		t.Fatalf("serve announced API addresses %s and %s, want one", serveAddrs[1], serveAddrs[2])
	}
	api := "http://" + serveAddrs[1]

	workerCtx, cancelWorker := context.WithCancel(context.Background())
	defer cancelWorker()
	lines, workerDone := startCLI(t, workerCtx, 3, "worker", "-join", api, "-workers", "1",
		"-metrics", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet")
	workerAddrs := readStartup(t, "worker", lines,
		"debug on ADDR/debug/pprof/",
		"metrics on ADDR/metrics",
		"worker NAME joining ADDR")
	if workerAddrs[2] != serveAddrs[1] {
		t.Fatalf("worker joined %s, want %s", workerAddrs[2], serveAddrs[1])
	}

	storeCtx, cancelStore := context.WithCancel(context.Background())
	defer cancelStore()
	lines, storeDone := startCLI(t, storeCtx, 2, "store", "serve", "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet")
	storeAddrs := readStartup(t, "store serve", lines,
		"debug on ADDR/debug/pprof/",
		"listening on ADDR")

	if body := get(t, api+"/v1/healthz"); !strings.Contains(body, `"dispatch"`) {
		t.Errorf("healthz = %s, want the dispatch mode", body)
	}
	for _, debug := range []string{serveAddrs[0], workerAddrs[0], storeAddrs[0]} {
		if body := get(t, "http://"+debug+"/debug/vars"); !strings.Contains(body, `"goroutines"`) {
			t.Errorf("%s/debug/vars = %s, want a runtime snapshot", debug, body)
		}
	}
	if body := get(t, "http://"+workerAddrs[1]+"/metrics"); !strings.Contains(body, "\nsparkxd_worker_slots 1\n") {
		t.Errorf("worker /metrics lacks sparkxd_worker_slots 1:\n%s", body)
	}

	stopCLI(t, "worker", cancelWorker, workerDone, workerAddrs[:2]...)
	stopCLI(t, "serve", cancelServe, serveDone, serveAddrs[:2]...)
	stopCLI(t, "store serve", cancelStore, storeDone, storeAddrs...)
}
