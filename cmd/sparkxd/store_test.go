package main

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sparkxd/internal/store"
)

// syncBuffer lets the test read stdout while run() is still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startStoreServe launches `sparkxd store serve` on a free port through
// the real CLI entry point and returns its base URL plus the exit-code
// channel (closed after shutdown).
func startStoreServe(t *testing.T, ctx context.Context, extra ...string) (string, <-chan int) {
	t.Helper()
	var stdout syncBuffer
	var stderr bytes.Buffer
	args := append([]string{"store", "serve", "-addr", "127.0.0.1:0", "-quiet"}, extra...)
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run(ctx, args, &stdout, &stderr)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		out := stdout.String()
		if i := strings.Index(out, "listening on "); i >= 0 {
			rest := out[i+len("listening on "):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				return strings.TrimSpace(rest[:j]), codeCh
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("store serve never announced its address\nstdout: %s\nstderr: %s", out, stderr.String())
		}
		select {
		case code := <-codeCh:
			t.Fatalf("store serve exited early with %d\nstderr: %s", code, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// The store server round-trips artifacts and manifests over the wire
// and shuts down cleanly on context cancellation.
func TestStoreServeRoundTrip(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, codeCh := startStoreServe(t, ctx)

	cl, err := store.NewHTTP(base, store.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	key, err := cl.Put("cli-note", map[string]int{"n": 42})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	env, err := cl.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	var got map[string]int
	if err := env.Decode(key.Kind(), &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got["n"] != 42 {
		t.Errorf("round trip = %v", got)
	}

	// Manifest endpoint: 404 when empty, then PUT delta + GET merge.
	resp, err := http.Get(base + "/v1/manifest")
	if err != nil {
		t.Fatalf("GET manifest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("empty manifest GET = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/manifest",
		strings.NewReader(`{"result": "`+string(key)+`"}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT manifest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("PUT manifest = %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/manifest")
	if err != nil {
		t.Fatalf("GET manifest: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), string(key)) {
		t.Errorf("GET manifest = %d %q, want the stored key", resp.StatusCode, buf.String())
	}

	cancel()
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Errorf("store serve exited %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("store serve did not shut down after cancellation")
	}
}

// A dir-backed store server persists artifacts and the manifest across
// restarts.
func TestStoreServePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	ctx1, cancel1 := context.WithCancel(context.Background())
	base, codeCh := startStoreServe(t, ctx1, "-store", dir)
	cl, err := store.NewHTTP(base, store.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	key, err := cl.Put("cli-note", map[string]int{"n": 7})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/manifest",
		strings.NewReader(`{"result": "`+string(key)+`"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT manifest: %v", err)
	}
	resp.Body.Close()
	cancel1()
	<-codeCh

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	base2, _ := startStoreServe(t, ctx2, "-store", dir)
	cl2, err := store.NewHTTP(base2, store.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	if _, err := cl2.Get(key); err != nil {
		t.Errorf("artifact lost across restart: %v", err)
	}
	resp, err = http.Get(base2 + "/v1/manifest")
	if err != nil {
		t.Fatalf("GET manifest: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), string(key)) {
		t.Errorf("manifest lost across restart: %q", buf.String())
	}
}
