package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sparkxd"
	"sparkxd/internal/sched"
	"sparkxd/internal/server"
	"sparkxd/internal/store"
)

// runServe starts the HTTP job service: submit pipeline-stage and sweep
// jobs over POST /v1/jobs, poll GET /v1/jobs/{id}, stream progress from
// GET /v1/jobs/{id}/events, and fetch content-addressed artifacts from
// GET /v1/artifacts/{key}. Jobs execute under leases (POST /v1/leases,
// renewals, uploads): in the default local dispatch an in-process
// worker runs -workers of them at a time, and `sparkxd worker`
// processes may join to add slots; -dispatch fleet leaves all execution
// to them. The listening address is printed on stdout ("listening on
// http://HOST:PORT"), so scripts can bind -addr to port 0 and discover
// the port.
//
// SIGINT/SIGTERM triggers a graceful drain: no new leases are granted,
// in-flight jobs get -drain-timeout to finish (the HTTP API stays up so
// workers can still upload and complete), and whatever is left is
// requeued instead of stranded in "running".
//
// With -shard i/m and -peers, the server joins a federation: it owns
// only the job IDs hashing to slice i and answers the rest with 421 +
// the owning peer's address, which clients follow transparently. A
// remote -store URL (see `sparkxd store serve`) lets all members share
// one artifact store — the durable job records there are what a
// replacement coordinator restores and requeues on startup.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		storeDir  = fs.String("store", "", "artifact store directory or remote store URL (empty = in-memory, lost on exit)")
		workers   = fs.Int("workers", 0, "jobs the in-process worker runs at once in local dispatch (0 = GOMAXPROCS)")
		dispatch  = fs.String("dispatch", "local", "who executes jobs: local (in-process slots plus any workers that join) or fleet (remote workers only)")
		leaseTTL  = fs.Duration("lease-ttl", server.DefaultLeaseTTL, "worker lease TTL (silent workers expire and their jobs requeue)")
		drain     = fs.Duration("drain-timeout", 30*time.Second, "how long a signalled server waits for in-flight jobs before requeueing them")
		maxWarm   = fs.Int("max-warm-systems", 0, "bound on cached warm System engines, LRU-evicted (0 = unbounded)")
		rate      = fs.Float64("rate", 0, "per-submitter job submissions per second before 429 (0 = no admission control)")
		burst     = fs.Int("burst", 0, "admission token-bucket burst (0 = max(1, rate))")
		shardSpec = fs.String("shard", "", "own slice i/m of the job-ID space in a federation (e.g. 1/2; needs -peers)")
		peers     = fs.String("peers", "", "comma-separated base URLs of all m federation coordinators, shard order")
		cacheDir  = fs.String("cache", "", "local read-through cache directory in front of a remote -store URL")
		logLevel  = fs.String("log-level", "info", "structured log threshold on stderr: debug, info, warn, error")
		debugAddr = fs.String("debug-addr", "", "serve pprof and runtime diagnostics on this address (empty = off)")
		quiet     = fs.Bool("quiet", false, "suppress job lifecycle logs on stderr")
	)
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	mode, err := server.ParseDispatch(*dispatch)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd serve: %v\n", err)
		return 2
	}
	shard, err := sched.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd serve: %v\n", err)
		return 2
	}

	// No -store leaves st nil: server.New then keeps an in-memory store.
	st, code := openServiceStore("sparkxd serve", *storeDir, *cacheDir, nil, stderr)
	if code != 0 {
		return code
	}
	logger, code := newCLILogger("sparkxd serve", *quiet, *logLevel, stderr)
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
	srv, err := server.New(server.Config{
		Store:          st,
		Workers:        *workers,
		Dispatch:       mode,
		LeaseTTL:       *leaseTTL,
		MaxWarmSystems: *maxWarm,
		Rate:           *rate,
		Burst:          *burst,
		ShardIndex:     shard.Index,
		ShardCount:     shard.Count,
		Peers:          splitList(*peers),
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd serve: %v\n", err)
		return 1
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd serve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	fmt.Fprintf(stdout, "dispatch %s: join workers with `sparkxd worker -join http://%s`\n", mode, ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		// Drain while the HTTP API is still up: workers need the lease
		// and upload endpoints to finish their in-flight jobs.
		srv.Drain(*drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutCtx)
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "sparkxd serve: %v\n", err)
		return 1
	}
	<-done
	return 0
}

// openServiceStore opens the -store of `sparkxd serve` or `sparkxd
// worker`: nil when location is empty, else the directory or remote
// store URL it names (a remote store's requests go through hc; nil
// keeps the store client's default). With cacheDir, a remote store gets
// a local read-through cache in front. The exit code is 2 for a -cache
// without a remote -store and 1 for a store that fails to open, after
// one line on stderr.
func openServiceStore(cmd, location, cacheDir string, hc *http.Client, stderr io.Writer) (sparkxd.ArtifactStore, int) {
	if cacheDir != "" && !sparkxd.IsStoreURL(location) {
		fmt.Fprintf(stderr, "%s: -cache needs a remote -store URL\n", cmd)
		return nil, 2
	}
	if location == "" {
		return nil, 0
	}
	var st sparkxd.ArtifactStore
	var err error
	if sparkxd.IsStoreURL(location) {
		st, err = sparkxd.RemoteStore(location, store.WithHTTPClient(hc))
	} else {
		st, err = sparkxd.OpenStore(location)
	}
	if err == nil && cacheDir != "" {
		var cache sparkxd.ArtifactStore
		if cache, err = sparkxd.OpenStore(cacheDir); err == nil {
			st = sparkxd.ReadThroughStore(cache, st)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
		return nil, 1
	}
	return st, 0
}
