// Federation tests: job-ID-space sharding with 421 misdirect answers,
// and coordinator takeover from durable queued-state job records.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/internal/store"
)

// seededSweepJob varies tinySweepJob's deterministic job ID via the
// seed, so tests can hunt for specs landing on a chosen shard.
func seededSweepJob(seed uint64) sparkxd.JobSpec {
	spec := tinySweepJob()
	spec.Config.Seed = seed
	return spec
}

// specOwnedBy returns a spec whose job ID hashes to the given shard.
func specOwnedBy(t *testing.T, index, count int) (sparkxd.JobSpec, string) {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		spec := seededSweepJob(seed)
		norm, err := spec.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		id, err := norm.ID()
		if err != nil {
			t.Fatal(err)
		}
		if shardOf(id, count) == index {
			return spec, id
		}
	}
	t.Fatalf("no seed under 200 hashes to shard %d/%d", index, count)
	return sparkxd.JobSpec{}, ""
}

func TestShardOfIsStableAndUniform(t *testing.T) {
	if a, b := shardOf("job-a", 4), shardOf("job-a", 4); a != b {
		t.Errorf("shardOf not deterministic: %d != %d", a, b)
	}
	seen := map[int]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		spec := seededSweepJob(seed)
		norm, _ := spec.Normalized()
		id, _ := norm.ID()
		got := shardOf(id, 3)
		if got < 1 || got > 3 {
			t.Fatalf("shardOf = %d, want 1..3", got)
		}
		seen[got] = true
	}
	if len(seen) != 3 {
		t.Errorf("64 IDs only reached shards %v of 3 — suspiciously non-uniform", seen)
	}
}

func TestShardConfigValidation(t *testing.T) {
	bad := []Config{
		{ShardIndex: 3, ShardCount: 2, Peers: []string{"a", "b"}},
		{ShardIndex: 0, ShardCount: 2, Peers: []string{"a", "b"}},
		{ShardIndex: 1, ShardCount: 2, Peers: []string{"a"}},
		{ShardIndex: 1, ShardCount: 2, Peers: []string{"a", " "}},
		{ShardIndex: 1, ShardCount: 2},
	}
	for i, cfg := range bad {
		if srv, err := New(cfg); err == nil {
			srv.Close()
			t.Errorf("config %d: New accepted invalid shard %d/%d peers=%v",
				i, cfg.ShardIndex, cfg.ShardCount, cfg.Peers)
		}
	}
	srv, err := New(Config{ShardIndex: 1, ShardCount: 1})
	if err != nil {
		t.Fatalf("unsharded config rejected: %v", err)
	}
	srv.Close()
}

// A sharded coordinator accepts its own slice of the ID space and
// answers the rest with a MisdirectError naming the owner, rendered as
// 421 over HTTP on the submit, status, and events routes.
func TestShardedSubmitMisdirected(t *testing.T) {
	peers := []string{"http://peer-one.internal", "http://peer-two.internal"}
	srv, err := New(Config{
		Dispatch:   DispatchFleet, // nothing executes; routing only
		ShardIndex: 1,
		ShardCount: 2,
		Peers:      peers,
		Logger:     testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	owned, ownedID := specOwnedBy(t, 1, 2)
	foreign, foreignID := specOwnedBy(t, 2, 2)

	status, created, err := srv.Submit(owned)
	if err != nil || !created {
		t.Fatalf("owned submit: created=%v err=%v", created, err)
	}
	if status.ID != ownedID {
		t.Fatalf("owned job ID %s, want %s", status.ID, ownedID)
	}

	_, _, err = srv.Submit(foreign)
	var mis *MisdirectError
	if !errors.As(err, &mis) {
		t.Fatalf("foreign submit err = %v, want MisdirectError", err)
	}
	if mis.Owner != peers[1] || mis.JobID != foreignID {
		t.Errorf("MisdirectError = %+v, want owner %s for %s", mis, peers[1], foreignID)
	}

	// The same refusal over HTTP: 421 with the owner in the body.
	body, _ := json.Marshal(foreign)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("POST foreign spec = %d, want 421", resp.StatusCode)
	}
	var ae struct {
		Error string `json:"error"`
		Owner string `json:"owner"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	if ae.Owner != peers[1] || ae.Error == "" {
		t.Errorf("421 body = %+v, want owner %s", ae, peers[1])
	}

	// Status and event lookups of foreign jobs are misdirected too, so a
	// client can reach the owner knowing only the job ID.
	for _, path := range []string{"/v1/jobs/" + foreignID, "/v1/jobs/" + foreignID + "/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Errorf("GET %s = %d, want 421", path, resp.StatusCode)
		}
	}
	// Unknown-but-owned IDs stay plain 404s.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + ownedID + "ff")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if want := chooseStatus(srv, ownedID+"ff"); resp2.StatusCode != want {
		t.Errorf("GET unknown job = %d, want %d", resp2.StatusCode, want)
	}
}

// chooseStatus returns the status an unknown job ID should yield on
// this server: 404 when owned, 421 when another shard's.
func chooseStatus(srv *Server, id string) int {
	if _, mis := srv.Owner(id); mis {
		return http.StatusMisdirectedRequest
	}
	return http.StatusNotFound
}

// A replacement coordinator over the same store restores queued-state
// job records into its queue — only those its shard owns.
func TestTakeoverRestoresQueuedJobs(t *testing.T) {
	shared := store.NewMem()
	srv1, err := New(Config{Store: shared, Dispatch: DispatchFleet, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(1); seed <= 6; seed++ {
		status, created, err := srv1.Submit(seededSweepJob(seed))
		if err != nil || !created {
			t.Fatalf("seed %d: created=%v err=%v", seed, created, err)
		}
		ids = append(ids, status.ID)
	}
	srv1.Close() // dies with 6 jobs queued; the records outlive it

	// An unsharded replacement restores all of them.
	srv2, err := New(Config{Store: shared, Dispatch: DispatchFleet, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	for _, id := range ids {
		status, ok := srv2.Job(id)
		if !ok {
			t.Errorf("job %s not restored", id)
			continue
		}
		if status.State != sparkxd.JobQueued {
			t.Errorf("job %s restored as %s, want queued", id, status.State)
		}
	}
	if depth := srv2.QueueDepth(); depth != len(ids) {
		t.Errorf("queue depth = %d, want %d", depth, len(ids))
	}
	// The restored queue is leasable — takeover, not just bookkeeping.
	grants, err := srv2.AcquireLeases("successor", len(ids))
	if err != nil || len(grants) != len(ids) {
		t.Fatalf("AcquireLeases = %d grants, %v; want %d", len(grants), err, len(ids))
	}

	// A sharded replacement restores only its own slice.
	peers := []string{"http://peer-one.internal", "http://peer-two.internal"}
	srv3, err := New(Config{
		Store: shared, Dispatch: DispatchFleet,
		ShardIndex: 1, ShardCount: 2, Peers: peers, Logger: testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv3.Close)
	owned := 0
	for _, id := range ids {
		_, ok := srv3.Job(id)
		if shardOf(id, 2) == 1 {
			owned++
			if !ok {
				t.Errorf("sharded takeover dropped owned job %s", id)
			}
		} else if ok {
			t.Errorf("sharded takeover restored foreign job %s", id)
		}
	}
	if depth := srv3.QueueDepth(); depth != owned {
		t.Errorf("sharded queue depth = %d, want %d", depth, owned)
	}
}

// End-to-end failover: a coordinator dies with work queued; its
// replacement re-executes that work to completion from the durable
// records alone, and a completed job's record survives takeover as a
// served-from-store terminal answer.
func TestFailoverCompletesRequeuedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	shared := store.NewMem()
	srv1, err := New(Config{Store: shared, Dispatch: DispatchFleet, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySweepJob()
	status, created, err := srv1.Submit(spec)
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	srv1.Close() // the job never ran

	srv2, err := New(Config{Store: shared, Workers: 2, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	final := waitDone(t, srv2, status.ID)
	if final.State != sparkxd.JobDone {
		t.Fatalf("requeued job = %s (%s), want done", final.State, final.Error)
	}
	if len(final.Artifacts) == 0 {
		t.Fatal("no artifacts on the failed-over job")
	}
	for role, key := range final.Artifacts {
		if _, err := shared.Stat(key); err != nil {
			t.Errorf("artifact %q (%s): %v", role, key, err)
		}
	}

	// Third lifetime: the done-state record now wins over the stale
	// queued-state record — terminal immediately, nothing re-executed.
	srv3, err := New(Config{Store: shared, Dispatch: DispatchFleet, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv3.Close)
	again, ok := srv3.Job(status.ID)
	if !ok {
		t.Fatal("job missing after second takeover")
	}
	if again.State != sparkxd.JobDone {
		t.Fatalf("state after second takeover = %s, want done", again.State)
	}
	if depth := srv3.QueueDepth(); depth != 0 {
		t.Errorf("queue depth = %d, want 0 (done record wins)", depth)
	}
}

// The coordinator's artifact routes are store.NewHandler's, so they
// keep the artifact wire's contract: malformed keys 400, absent keys
// 404, listings 200; a PUT stores only bytes that hash back to the key
// it names (201), and a HEAD reports the envelope's size.
func TestArtifactRouteErrorContract(t *testing.T) {
	srv, ts := newTestServer(t)
	key, err := srv.Store().Put("sample-note", map[string]int{"n": 1})
	if err != nil {
		t.Fatal(err)
	}
	// A valid envelope the store does not hold yet, and a copy of it
	// with one payload byte changed.
	newKey, env, err := store.Encode("sample-note", map[string]int{"n": 2})
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(env, []byte(`"n":2`), []byte(`"n":3`), 1)
	if bytes.Equal(tampered, env) {
		t.Fatalf("no payload byte to change in %s", env)
	}
	tests := []struct {
		method, path string
		body         []byte
		want         int
	}{
		{http.MethodGet, "/v1/artifacts/" + string(key), nil, http.StatusOK},
		{http.MethodGet, "/v1/artifacts/", nil, http.StatusNotFound},
		{http.MethodGet, "/v1/artifacts/noslash", nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/artifacts/sample-note/nothex", nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/artifacts/sample-note/" + status64("ab"), nil, http.StatusNotFound},
		{http.MethodGet, "/v1/artifacts", nil, http.StatusOK},
		{http.MethodGet, "/v1/artifacts?kind=sample-note", nil, http.StatusOK},
		{http.MethodPut, "/v1/artifacts/" + string(newKey), tampered, http.StatusBadRequest},
		{http.MethodPut, "/v1/artifacts/" + string(key), env, http.StatusBadRequest},
		{http.MethodGet, "/v1/artifacts/" + string(newKey), nil, http.StatusNotFound},
		{http.MethodPut, "/v1/artifacts/" + string(newKey), env, http.StatusCreated},
		{http.MethodGet, "/v1/artifacts/" + string(newKey), nil, http.StatusOK},
		{http.MethodHead, "/v1/artifacts/" + string(newKey), nil, http.StatusOK},
		{http.MethodHead, "/v1/artifacts/sample-note/" + status64("ab"), nil, http.StatusNotFound},
	}
	for _, tc := range tests {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}

	get, err := http.Get(ts.URL + "/v1/artifacts/" + string(newKey))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(get.Body)
	get.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	head, err := http.Head(ts.URL + "/v1/artifacts/" + string(newKey))
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.ContentLength != int64(len(body)) {
		t.Errorf("HEAD Content-Length = %d, GET body is %d bytes", head.ContentLength, len(body))
	}
}

// status64 repeats a hex pair to a 64-char pseudo-hash.
func status64(pair string) string {
	out := ""
	for i := 0; i < 32; i++ {
		out += pair
	}
	return out
}

// The remote store backend composes with the job server: a coordinator
// over an HTTP store (as in a federation) behaves like one over a
// local store, including record persistence through the wire.
func TestServerOverRemoteStore(t *testing.T) {
	backend := store.NewMem()
	storeSrv := httptest.NewServer(store.NewHandler(backend))
	t.Cleanup(storeSrv.Close)
	remote, err := store.NewHTTP(storeSrv.URL, store.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: remote, Dispatch: DispatchFleet, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	status, created, err := srv.Submit(tinySweepJob())
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	// The queued-state record reached the backend through the wire.
	infos, err := backend.List(sparkxd.KindJobRecord)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range infos {
		rec, err := sparkxd.GetJobRecord(backend, info.Key)
		if err != nil {
			t.Fatal(err)
		}
		if rec.JobID == status.ID && rec.State == sparkxd.JobQueued {
			found = true
		}
	}
	if !found {
		t.Errorf("no queued record for %s behind the remote store", status.ID)
	}
}
