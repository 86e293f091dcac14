package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sparkxd/internal/worker"
)

// runWorker joins a coordinator (`sparkxd serve`, either dispatch mode)
// as a fleet worker: lease queued jobs, execute them on the local pool,
// deliver their events and spans with the lease renewals, store the
// results, and complete. An idle
// lease request waits on the coordinator for up to -poll, so a
// submission is picked up as it arrives. SIGINT/SIGTERM drains:
// in-flight jobs get -drain-timeout to finish; whatever is still
// running has its lease released so the coordinator requeues it
// immediately.
//
// Results go into the coordinator's store through its artifact routes.
// In a federation, -store points the worker at the shared artifact
// store (a directory or a `sparkxd store serve` URL) instead; -cache
// layers a local read-through cache in front of a remote store.
func runWorker(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd worker", flag.ContinueOnError)
	var (
		join      = fs.String("join", "http://127.0.0.1:8080", "coordinator base URL to join")
		workers   = fs.Int("workers", 0, "concurrent job slots (0 = GOMAXPROCS; also sizes the sweep pool)")
		name      = fs.String("name", "", "worker name (default <hostname>-<pid>)")
		poll      = fs.Duration("poll", 500*time.Millisecond, "how long one idle lease request waits for work")
		drain     = fs.Duration("drain-timeout", 30*time.Second, "how long a signalled worker keeps finishing in-flight jobs")
		maxWarm   = fs.Int("max-warm-systems", 0, "bound on cached warm System engines, LRU-evicted (0 = unbounded)")
		storeLoc  = fs.String("store", "", "shared artifact store (directory or store URL); empty = the coordinator's store")
		cacheDir  = fs.String("cache", "", "local read-through cache directory in front of a remote -store URL")
		metrics   = fs.String("metrics", "", "serve Prometheus metrics on this address (host:port; port 0 picks a free port; empty = off)")
		logLevel  = fs.String("log-level", "info", "structured log threshold on stderr: debug, info, warn, error")
		debugAddr = fs.String("debug-addr", "", "serve pprof and runtime diagnostics on this address (empty = off)")
		quiet     = fs.Bool("quiet", false, "suppress lease lifecycle logs on stderr")
	)
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}

	logger, code := newCLILogger("sparkxd worker", *quiet, *logLevel, stderr)
	if code != 0 {
		return code
	}
	if *debugAddr != "" {
		stop, ok := startDebugServer(*debugAddr, stdout, stderr)
		if !ok {
			return 1
		}
		defer stop()
	}
	// One transport for both the lease protocol and a remote store, so
	// they share connection pools toward the same hosts; the timeout
	// matches newCoordClient's default client.
	hc := &http.Client{Timeout: 30 * time.Second}
	// No -store leaves st nil: the worker then puts into the
	// coordinator's store through hc.
	st, code := openServiceStore("sparkxd worker", *storeLoc, *cacheDir, hc, stderr)
	if code != 0 {
		return code
	}
	w, err := worker.New(worker.Config{
		Coordinator:    *join,
		Name:           *name,
		Slots:          *workers,
		Poll:           *poll,
		DrainTimeout:   *drain,
		MaxWarmSystems: *maxWarm,
		HTTPClient:     hc,
		Store:          st,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd worker: %v\n", err)
		return 2
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(stderr, "sparkxd worker: metrics listen: %v\n", err)
			return 1
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", w.MetricsHandler())
		ms := &http.Server{Handler: mux}
		go func() { _ = ms.Serve(ln) }()
		defer ms.Close()
		fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", ln.Addr())
	}
	fmt.Fprintf(stdout, "worker %s joining %s\n", w.Name(), *join)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(stderr, "sparkxd worker: %v\n", err)
		return 1
	}
	return 0
}
