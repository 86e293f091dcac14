package store

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newWireServer serves a fresh Mem store over the artifact wire and
// returns an HTTP client pointed at it (fast retries for tests).
func newWireServer(t *testing.T) (Store, *HTTP) {
	t.Helper()
	backend := NewMem()
	ts := httptest.NewServer(NewHandler(backend))
	t.Cleanup(ts.Close)
	cl, err := NewHTTP(ts.URL, WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	return backend, cl
}

func TestNewHTTPRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "ftp://host", "host:8080", "http://", ":not a url:"} {
		if _, err := NewHTTP(bad); err == nil {
			t.Errorf("NewHTTP(%q): expected error", bad)
		}
	}
	if _, err := NewHTTP("https://example.com/"); err != nil {
		t.Errorf("NewHTTP(https): %v", err)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	backend, cl := newWireServer(t)

	in := sample{Name: "remote", Count: 7, Vals: []float64{0.5}}
	key, err := cl.Put("sample", in)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	// The remote backend holds the canonical bytes under the same key.
	if _, err := backend.Get(key); err != nil {
		t.Fatalf("backend Get after remote Put: %v", err)
	}
	// Idempotent re-put of identical content.
	if key2, err := cl.Put("sample", in); err != nil || key2 != key {
		t.Fatalf("re-Put = (%s, %v), want (%s, nil)", key2, err, key)
	}

	env, err := cl.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	var out sample
	if err := env.Decode(key.Kind(), &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Name != in.Name || out.Count != in.Count {
		t.Errorf("round trip mismatch: got %+v, want %+v", out, in)
	}

	info, err := cl.Stat(key)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if info.Key != key || info.Kind != "sample" || info.Size <= 0 {
		t.Errorf("Stat = %+v", info)
	}
	// HEAD's Content-Length must agree with the store's own accounting.
	want, err := backend.Stat(key)
	if err != nil {
		t.Fatalf("backend Stat: %v", err)
	}
	if info.Size != want.Size {
		t.Errorf("Stat size = %d over the wire, %d in the backend", info.Size, want.Size)
	}

	infos, err := cl.List("sample")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(infos) != 1 || infos[0].Key != key {
		t.Errorf("List = %+v, want one entry for %s", infos, key)
	}
	if infos, err := cl.List("absent-kind"); err != nil || len(infos) != 0 {
		t.Errorf("List(absent) = (%v, %v), want empty", infos, err)
	}
}

func TestHTTPSentinelMapping(t *testing.T) {
	_, cl := newWireServer(t)

	missing := Key("sample/" + strings.Repeat("ab", 32))
	if _, err := cl.Get(missing); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	if _, err := cl.Stat(missing); !errors.Is(err, ErrNotFound) {
		t.Errorf("Stat(missing) = %v, want ErrNotFound", err)
	}
	// Malformed keys are rejected locally, before any round trip.
	if _, err := cl.Get(Key("no-slash")); !errors.Is(err, ErrBadKey) {
		t.Errorf("Get(malformed) = %v, want ErrBadKey", err)
	}
	if _, err := cl.List("Not A Kind"); !errors.Is(err, ErrBadKey) {
		t.Errorf("List(bad kind) = %v, want ErrBadKey", err)
	}
}

// A remote 400 (e.g. from a server whose validation is stricter) maps
// to ErrBadKey even when the client-side check passed.
func TestHTTPRemoteBadRequestMapsToErrBadKey(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "server-side reject"})
	}))
	defer ts.Close()
	cl, err := NewHTTP(ts.URL, WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	key := Key("sample/" + strings.Repeat("cd", 32))
	if _, err := cl.Get(key); !errors.Is(err, ErrBadKey) {
		t.Errorf("Get = %v, want ErrBadKey", err)
	}
}

// A remote that serves bytes failing integrity verification yields
// ErrCorrupt — the client never trusts the wire.
func TestHTTPGetVerifiesIntegrity(t *testing.T) {
	_, tamperedBytes, err := Encode("sample", sample{Name: "evil"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(tamperedBytes) // valid envelope, but not for the requested key
	}))
	defer ts.Close()
	cl, err := NewHTTP(ts.URL, WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	otherKey := Key("sample/" + strings.Repeat("ef", 32))
	if _, err := cl.Get(otherKey); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get(tampered) = %v, want ErrCorrupt", err)
	}
}

// Transient failures (503) retry until the service recovers; permanent
// ones (404) surface immediately.
func TestHTTPRetriesTransientFailures(t *testing.T) {
	backend := NewMem()
	inner := NewHandler(backend)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cl, err := NewHTTP(ts.URL, WithRetries(3), WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	key, err := cl.Put("sample", sample{Name: "retry"})
	if err != nil {
		t.Fatalf("Put through flaky server: %v", err)
	}
	if _, err := backend.Get(key); err != nil {
		t.Fatalf("backend Get: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (two 503s + success)", got)
	}
}

func TestHTTPRetryBudgetExhausts(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	cl, err := NewHTTP(ts.URL, WithRetries(1), WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	if _, err := cl.Put("sample", sample{Name: "never"}); err == nil {
		t.Fatal("Put against a dead server: expected error")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2 (initial + one retry)", got)
	}
}

// The wire handler's error contract, row by row: malformed keys 400,
// absent keys 404, unverifiable uploads 400, health 200.
func TestHandlerErrorContract(t *testing.T) {
	backend := NewMem()
	goodKey, goodBytes, err := Encode("sample", sample{Name: "stored"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := backend.Put("sample", sample{Name: "stored"}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	h := NewHandler(backend)

	missing := "sample/" + strings.Repeat("ab", 32)
	tests := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"get stored", http.MethodGet, "/v1/artifacts/" + string(goodKey), "", http.StatusOK},
		{"head stored", http.MethodHead, "/v1/artifacts/" + string(goodKey), "", http.StatusOK},
		{"get missing", http.MethodGet, "/v1/artifacts/" + missing, "", http.StatusNotFound},
		{"get empty key", http.MethodGet, "/v1/artifacts/", "", http.StatusNotFound},
		{"get malformed key", http.MethodGet, "/v1/artifacts/noslash", "", http.StatusBadRequest},
		{"get bad hash", http.MethodGet, "/v1/artifacts/sample/nothex", "", http.StatusBadRequest},
		{"put malformed key", http.MethodPut, "/v1/artifacts/noslash", string(goodBytes), http.StatusBadRequest},
		{"put mismatched body", http.MethodPut, "/v1/artifacts/" + missing, string(goodBytes), http.StatusBadRequest},
		{"put garbage body", http.MethodPut, "/v1/artifacts/" + string(goodKey), "not json", http.StatusBadRequest},
		{"put verified", http.MethodPut, "/v1/artifacts/" + string(goodKey), string(goodBytes), http.StatusCreated},
		{"list all", http.MethodGet, "/v1/artifacts", "", http.StatusOK},
		{"health", http.MethodGet, "/v1/healthz", "", http.StatusOK},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req := httptest.NewRequest(tc.method, tc.path, body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("%s %s = %d, want %d (body: %s)", tc.method, tc.path, rec.Code, tc.want, rec.Body.String())
			}
			if rec.Code >= 400 {
				var we wireError
				if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil || we.Error == "" {
					t.Errorf("error body %q is not {\"error\": ...}", rec.Body.String())
				}
			}
		})
	}
}
