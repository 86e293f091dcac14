package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"sparkxd"
	"sparkxd/internal/store"
	"sparkxd/internal/version"
)

// serviceFlags are the flags the serving commands (serve, worker, store
// serve) share: the structured log threshold, the debug listener and
// -quiet.
type serviceFlags struct {
	logLevel, debugAddr *string
	quiet               *bool
}

// addServiceFlags declares the shared serving flags on fs; quietUsage
// says which logs -quiet suppresses.
func addServiceFlags(fs *flag.FlagSet, quietUsage string) serviceFlags {
	return serviceFlags{
		logLevel:  fs.String("log-level", "info", "structured log threshold on stderr: debug, info, warn, error"),
		debugAddr: fs.String("debug-addr", "", "serve pprof and runtime diagnostics on this address (empty = off)"),
		quiet:     fs.Bool("quiet", false, quietUsage),
	}
}

// start builds the command's logger, JSON lines on stderr at -log-level
// ("debug", "info", "warn", "error", case-insensitive; slog's "warn+2"
// offsets also work) with every level off under -quiet, and starts the
// -debug-addr listener when one is set. A bad level exits 2 and a failed
// debug listen 1, after one line on stderr; otherwise the caller defers
// stop.
func (f serviceFlags) start(prog string, stdout, stderr io.Writer) (logger *slog.Logger, stop func(), code int) {
	level := slog.Level(math.MaxInt)
	if !*f.quiet {
		if err := level.UnmarshalText([]byte(strings.TrimSpace(*f.logLevel))); err != nil {
			fmt.Fprintf(stderr, "%s: unknown log level %q (valid: debug, info, warn, error)\n", prog, *f.logLevel)
			return nil, nil, 2
		}
	}
	logger = slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: level}))
	if *f.debugAddr == "" {
		return logger, func() {}, 0
	}
	stop, err := serveBackground("debug", *f.debugAddr, "/debug/pprof/", debugHandler(), stdout)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, nil, 1
	}
	return logger, stop, 0
}

// openServiceStore opens the -store of `sparkxd serve`, `worker` or
// `store serve`: nil when location is empty, else the directory or
// remote store URL it names (a remote store's requests go through hc;
// nil keeps the store client's default). With cacheDir (`serve -cache`),
// a remote store gets a local read-through cache in front. The exit code
// is 2 for a -cache without a remote -store and 1 for a store that fails
// to open, after one line on stderr.
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

// serveBackground serves h on addr until the returned stop is called,
// after printing "<name> on http://HOST:PORT<path>" on stdout, so
// scripts can bind port 0 and read the port back. It runs the debug
// listener of every serving command and `worker -metrics`. stop returns
// once the listener is closed.
func serveBackground(name, addr, path string, h http.Handler, stdout io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s listen: %w", name, err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { defer close(done); _ = hs.Serve(ln) }()
	fmt.Fprintf(stdout, "%s on http://%s%s\n", name, ln.Addr(), path)
	return func() { _ = hs.Close(); <-done }, nil
}

// serveUntilDone serves h on ln, the main listener of serve and store
// serve, until ctx ends. Then it calls drain, when there is one, while
// h still answers (a coordinator's workers need the lease and upload
// routes to finish their jobs), and shuts down within 5 s. A serve
// error prints on stderr after prog and exits 1.
func serveUntilDone(ctx context.Context, prog string, ln net.Listener, h http.Handler, drain func(), stderr io.Writer) int {
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		if drain != nil {
			drain()
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutCtx)
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}
	<-done
	return 0
}

// debugHandler is the Go diagnostics toolbox behind -debug-addr:
//
//	/debug/pprof/            index (heap, goroutine, block, mutex, ...)
//	/debug/pprof/profile     30s CPU profile
//	/debug/pprof/trace       runtime execution trace
//	/debug/vars              JSON runtime snapshot (goroutines, memory)
//
// It is opt-in and bound to its own address precisely so the serving
// endpoints never expose profiling to job-submitting clients; bind it
// to localhost (or port 0 in scripts) and point `go tool pprof` at it.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/vars", handleDebugVars)
	return mux
}

// handleDebugVars serves a one-shot JSON snapshot of process runtime
// state — the numbers a first-response debugging session wants before
// reaching for a full profile.
func handleDebugVars(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := map[string]any{
		"version":        version.String(),
		"go_version":     runtime.Version(),
		"goroutines":     runtime.NumGoroutine(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"num_gc":         ms.NumGC,
		"heap_alloc":     ms.HeapAlloc,
		"heap_inuse":     ms.HeapInuse,
		"heap_objects":   ms.HeapObjects,
		"stack_inuse":    ms.StackInuse,
		"total_alloc":    ms.TotalAlloc,
		"gc_pause_total": time.Duration(ms.PauseTotalNs).String(),
	}
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(snap, "", "  ")
	w.Write(append(b, '\n'))
}
