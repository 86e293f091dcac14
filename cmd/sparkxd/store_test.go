package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
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
// channel.
func startStoreServe(t *testing.T, ctx context.Context, extra ...string) (string, <-chan int) {
	t.Helper()
	lines, codeCh := startCLI(t, ctx, 1, append([]string{"store", "serve", "-addr", "127.0.0.1:0", "-quiet"}, extra...)...)
	return strings.TrimPrefix(lines[0], "listening on "), codeCh
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

// A store server whose -store is another store server's URL forwards
// manifest writes upstream, where they merge: a PUT through the front
// server reads back from both servers, and a later PUT that records a
// different improved model drops the roles measured on the old one.
func TestStoreServeChainsManifest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	back, backCode := startStoreServe(t, ctx)
	front, frontCode := startStoreServe(t, ctx, "-store", back)

	put := func(body string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, front+"/v1/manifest", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT manifest: %v", err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %s through the front server = %d %q, want 204", body, resp.StatusCode, msg.String())
		}
	}
	check := func(want map[string]string) {
		t.Helper()
		for _, base := range []string{front, back} {
			resp, err := http.Get(base + "/v1/manifest")
			if err != nil {
				t.Fatalf("GET manifest: %v", err)
			}
			var got map[string]string
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil || !maps.Equal(got, want) {
				t.Fatalf("GET %s/v1/manifest = %d %v (%v), want %v", base, resp.StatusCode, got, err, want)
			}
		}
	}

	put(`{"baseline": "model-0", "improved": "model-a", "tolerance": "tol-a", "placement": "map-a"}`)
	check(map[string]string{"baseline": "model-0", "improved": "model-a", "tolerance": "tol-a", "placement": "map-a"})
	put(`{"improved": "model-b", "tolerance": "tol-b"}`)
	check(map[string]string{"baseline": "model-0", "improved": "model-b", "tolerance": "tol-b"})

	cancel()
	for name, codeCh := range map[string]<-chan int{"front": frontCode, "back": backCode} {
		select {
		case code := <-codeCh:
			if code != 0 {
				t.Errorf("%s store serve exited %d, want 0", name, code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s store serve did not shut down after cancellation", name)
		}
	}
}
