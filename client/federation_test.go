// Federation behavior of the client: transparently following a sharded
// coordinator's 421 Misdirected Request to the owning peer, and the
// per-request timeout option.
package client_test

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/client"
	"sparkxd/internal/server"
)

// testLogger returns a text logger that writes each record through
// t.Log, so a failing test prints the component's records.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// newFederation builds a 2-shard coordinator pair (fleet dispatch, so
// nothing executes) where shard 1 knows shard 2's real address, and
// returns both servers plus shard 1's base URL — the "wrong door" the
// tests knock on.
func newFederation(t *testing.T) (srv1, srv2 *server.Server, base1 string) {
	t.Helper()
	// Shard 2 first: its address goes into shard 1's peer list. Its own
	// list only needs shape (it never redirects in these tests).
	srv2, err := server.New(server.Config{
		Dispatch:   server.DispatchFleet,
		ShardIndex: 2, ShardCount: 2,
		Peers:  []string{"http://unused-peer-one", "http://unused-self"},
		Logger: testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)

	srv1, err = server.New(server.Config{
		Dispatch:   server.DispatchFleet,
		ShardIndex: 1, ShardCount: 2,
		Peers:  []string{"http://unused-self", ts2.URL},
		Logger: testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv1.Close)
	ts1 := httptest.NewServer(srv1.Handler())
	t.Cleanup(ts1.Close)
	return srv1, srv2, ts1.URL
}

// foreignSpec hunts for a spec owned by shard 2 (i.e. one shard 1
// answers with a MisdirectError).
func foreignSpec(t *testing.T, srv1 *server.Server) sparkxd.JobSpec {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		spec := tinySweepSpec()
		spec.Config.Seed = seed
		if _, _, err := srv1.Submit(spec); err != nil {
			var mis *server.MisdirectError
			if errors.As(err, &mis) {
				return spec
			}
			t.Fatal(err)
		}
	}
	t.Fatal("no seed under 200 hashes to shard 2")
	return sparkxd.JobSpec{}
}

// Submitting to the wrong federation member lands on the owner without
// the caller noticing, and status/event reads follow the same way.
func TestClientFollowsShardRedirect(t *testing.T) {
	srv1, srv2, base1 := newFederation(t)
	spec := foreignSpec(t, srv1)
	ctx := context.Background()

	c, err := client.New(base1)
	if err != nil {
		t.Fatal(err)
	}
	status, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit through the wrong shard: %v", err)
	}
	if status.State != sparkxd.JobQueued {
		t.Fatalf("state = %s, want queued", status.State)
	}
	// The job lives on shard 2 only.
	if _, ok := srv2.Job(status.ID); !ok {
		t.Error("job did not land on the owning shard")
	}
	if _, ok := srv1.Job(status.ID); ok {
		t.Error("job leaked onto the misdirected shard")
	}

	// Status polls against the wrong base follow too.
	got, err := c.Job(ctx, status.ID)
	if err != nil {
		t.Fatalf("Job through the wrong shard: %v", err)
	}
	if got.ID != status.ID || got.State != sparkxd.JobQueued {
		t.Errorf("Job = %+v", got)
	}

	// The SSE stream follows as well: the queued lifecycle event arrives
	// from the owner. fn aborts the stream once it has seen it.
	errSeen := errors.New("seen")
	err = c.Events(ctx, status.ID, func(ev sparkxd.Event) error {
		if ev.Stage == "job" && ev.Phase == "queued" {
			return errSeen
		}
		return nil
	})
	if !errors.Is(err, errSeen) {
		t.Errorf("Events through the wrong shard = %v, want to see the queued event", err)
	}
}

// A server that answers 421 without a usable owner must not loop.
func TestClientMisdirectWithoutOwnerFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		w.Write([]byte(`{"error":"not mine"}`))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(context.Background(), "deadbeef"); err == nil {
		t.Fatal("ownerless 421: expected error")
	}
}

// Two shards misconfigured to point at each other exhaust the hop
// bound instead of redirecting forever.
func TestClientMisdirectLoopBounded(t *testing.T) {
	var hops int
	var urlA, urlB string
	mk := func(other *string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hops++
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			w.Write([]byte(`{"error":"not mine","owner":"` + *other + `"}`))
		}))
	}
	tsA := mk(&urlB)
	defer tsA.Close()
	tsB := mk(&urlA)
	defer tsB.Close()
	urlA, urlB = tsA.URL, tsB.URL

	c, err := client.New(urlA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(context.Background(), "deadbeef"); err == nil {
		t.Fatal("redirect loop: expected error")
	}
	if hops > 10 {
		t.Errorf("client made %d hops before giving up — bound not applied", hops)
	}
}

// WithTimeout bounds one round trip without touching the caller's
// context.
func TestWithTimeoutBoundsRequests(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Job(context.Background(), "deadbeef")
	if err == nil {
		t.Fatal("hung server: expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("request took %s despite a 50ms WithTimeout", elapsed)
	}
}

// WithHTTPClient is shared verbatim, so transport-level concerns
// (here: a counting RoundTripper) apply to every request.
func TestWithHTTPClientSharesTransport(t *testing.T) {
	srv, err := server.New(server.Config{Dispatch: server.DispatchFleet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var count int
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		count++
		return http.DefaultTransport.RoundTrip(r)
	})}
	c, err := client.New(ts.URL, client.WithHTTPClient(hc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Jobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("request bypassed the injected HTTP client")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
