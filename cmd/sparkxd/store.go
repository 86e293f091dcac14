package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"sparkxd"
	"sparkxd/internal/store"
)

// runStore dispatches the `sparkxd store` subcommands. Today there is
// one: `store serve`, which exposes a local artifact store over the
// same GET/PUT /v1/artifacts wire a coordinator speaks, so a federation
// of coordinators, workers, and CLI runs can share one remote store.
func runStore(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "sparkxd store: missing subcommand (want: serve)")
		return 2
	}
	switch args[0] {
	case "serve":
		return runStoreServe(ctx, args[1:], stdout, stderr)
	case "-h", "--help", "help":
		fmt.Fprintln(stdout, "Usage: sparkxd store serve [flags]")
		return 0
	default:
		fmt.Fprintf(stderr, "sparkxd store: unknown subcommand %q (want: serve)\n", args[0])
		return 2
	}
}

// runStoreServe serves a local artifact store over HTTP: integrity-
// verified GET /v1/artifacts/{key}, idempotent PUT /v1/artifacts/{key},
// kind listings on GET /v1/artifacts, plus GET/PUT /v1/manifest so
// `-artifacts http://...` CLI runs can record and resume role → key
// maps remotely. The listening address is printed on stdout
// ("listening on http://HOST:PORT") like `sparkxd serve`, so scripts
// can bind -addr to port 0 and discover the port.
func runStoreServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparkxd store serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks a free port)")
		storeDir = fs.String("store", "", "artifact store directory or store serve URL (empty = in-memory, lost on exit)")
		service  = addServiceFlags(fs, "suppress request logs on stderr")
	)
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	logger, stop, code := service.start("sparkxd store serve", stdout, stderr)
	if code != 0 {
		return code
	}
	defer stop()

	st, code := openServiceStore("sparkxd store serve", *storeDir, "", nil, stderr)
	if code != 0 {
		return code
	}
	if st == nil {
		st = sparkxd.MemoryStore()
	}

	mux := http.NewServeMux()
	mux.Handle("/", store.NewHandler(st))
	man := &manifestEndpoint{dir: *storeDir}
	mux.HandleFunc("GET /v1/manifest", man.handleGet)
	mux.HandleFunc("PUT /v1/manifest", man.handlePut)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "sparkxd store serve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	return serveUntilDone(ctx, "sparkxd store serve", ln, logRequests(logger, mux), nil, stderr)
}

// manifestEndpoint serves the shared role → key manifest of a store
// server. Writes merge under one mutex, so concurrent `-artifacts
// http://...` runs interleave without losing roles (the same
// mergeManifest a directory store gets from writeManifest). A
// store-backed endpoint reads and writes the manifest of its -store
// location through readManifest and writeManifest: a directory's
// manifest.json next to the artifacts, or, for a URL, the upstream
// server's manifest, where the merge then runs. An in-memory endpoint
// lives and dies with the process, like its store.
type manifestEndpoint struct {
	mu  sync.Mutex
	dir string // the -store location; empty for in-memory
	mem map[string]sparkxd.ArtifactKey
}

func (m *manifestEndpoint) handleGet(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	roles, err := m.load()
	m.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if len(roles) == 0 {
		http.Error(w, "no manifest", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(roles, "", "  ")
	w.Write(append(b, '\n'))
}

func (m *manifestEndpoint) handlePut(w http.ResponseWriter, r *http.Request) {
	var delta map[string]sparkxd.ArtifactKey
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&delta); err != nil {
		http.Error(w, "bad manifest body: "+err.Error(), http.StatusBadRequest)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dir == "" {
		m.mem = mergeManifest(m.mem, delta)
	} else if err := writeManifest(m.dir, delta); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// load reads the current manifest (caller holds m.mu).
func (m *manifestEndpoint) load() (map[string]sparkxd.ArtifactKey, error) {
	if m.dir == "" {
		return m.mem, nil
	}
	return readManifest(m.dir)
}

// logRequests emits one structured line per request — method, path,
// status, payload size, and duration — the store server's request-level
// observability story.
func logRequests(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		lw := &loggedResponse{ResponseWriter: rw, status: http.StatusOK}
		next.ServeHTTP(lw, r)
		log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", lw.status,
			"bytes", lw.bytes,
			"duration_ms", float64(time.Since(start).Microseconds())/1000)
	})
}

type loggedResponse struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (l *loggedResponse) WriteHeader(code int) {
	l.status = code
	l.ResponseWriter.WriteHeader(code)
}

func (l *loggedResponse) Write(b []byte) (int, error) {
	n, err := l.ResponseWriter.Write(b)
	l.bytes += n
	return n, err
}
