package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// HTTP is the remote Store backend: a client for the artifact wire the
// job server and `sparkxd store serve` both speak —
//
//	GET  /v1/artifacts/{key...}   the canonical envelope bytes
//	HEAD /v1/artifacts/{key...}   existence + envelope size
//	PUT  /v1/artifacts/{key...}   upload an envelope (idempotent)
//	GET  /v1/artifacts?kind=      the Info listing of one kind
//
// Reads are integrity-verified end to end: fetched bytes go through
// DecodeEnvelope, so a payload that does not hash back to its address
// is rejected with ErrCorrupt no matter what the remote claims. Writes
// are idempotent by construction (content addressing), so transient
// failures — transport errors, 5xx, 429 — are retried with jittered
// exponential backoff before surfacing.
type HTTP struct {
	base    string
	hc      *http.Client
	retries int           // extra attempts after the first
	backoff time.Duration // first retry delay; doubles per attempt, ±50% jitter
}

// HTTPOption configures an HTTP store client.
type HTTPOption func(*HTTP)

// WithHTTPClient replaces the underlying *http.Client, so the store
// client can share transport configuration (timeouts, connection pools)
// with other clients of the same service.
func WithHTTPClient(hc *http.Client) HTTPOption {
	return func(s *HTTP) {
		if hc != nil {
			s.hc = hc
		}
	}
}

// WithRetries sets how many times a transient failure is retried
// (default 2, i.e. up to 3 attempts; negative disables retries).
func WithRetries(n int) HTTPOption {
	return func(s *HTTP) {
		if n < 0 {
			n = 0
		}
		s.retries = n
	}
}

// WithRetryBackoff sets the first retry delay (default 100ms; the delay
// doubles per attempt and is jittered ±50%).
func WithRetryBackoff(d time.Duration) HTTPOption {
	return func(s *HTTP) {
		if d > 0 {
			s.backoff = d
		}
	}
}

// NewHTTP builds a Store client for the artifact service at baseURL
// (e.g. "http://127.0.0.1:9000").
func NewHTTP(baseURL string, opts ...HTTPOption) (*HTTP, error) {
	base := strings.TrimRight(baseURL, "/")
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("store: remote url %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("store: remote url %q: want http(s)://host[:port]", baseURL)
	}
	s := &HTTP{
		base:    base,
		hc:      &http.Client{Timeout: 60 * time.Second},
		retries: 2,
		backoff: 100 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Put implements Store: the payload is encoded locally (which also
// derives the content address) and the canonical envelope bytes are PUT
// to the remote, which re-verifies them against the key. Both 200 and
// 201 are success — the remote may already hold the bytes.
func (s *HTTP) Put(kind string, payload any) (Key, error) {
	key, b, err := Encode(kind, payload)
	if err != nil {
		return "", err
	}
	resp, err := s.doRetry(http.MethodPut, s.keyURL(key), b)
	if err != nil {
		return "", fmt.Errorf("store: put %s: %w", key, err)
	}
	defer drain(resp)
	if resp.StatusCode/100 != 2 {
		return "", s.statusError("put", key, resp)
	}
	return key, nil
}

// Get implements Store. The response bytes are decoded and re-hashed
// against the key, so a corrupt or tampered remote envelope satisfies
// errors.Is(err, ErrCorrupt) instead of being trusted.
func (s *HTTP) Get(key Key) (*Envelope, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	resp, err := s.doRetry(http.MethodGet, s.keyURL(key), nil)
	if err != nil {
		return nil, fmt.Errorf("store: get %s: %w", key, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, s.statusError("get", key, resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("store: get %s: read: %w", key, err)
	}
	return DecodeEnvelope(key, bytes.TrimRight(b, "\r\n"))
}

// Stat implements Store via a HEAD round trip (no payload transferred);
// the size comes from the Content-Length the service sets.
func (s *HTTP) Stat(key Key) (Info, error) {
	if err := key.Validate(); err != nil {
		return Info{}, err
	}
	resp, err := s.doRetry(http.MethodHead, s.keyURL(key), nil)
	if err != nil {
		return Info{}, fmt.Errorf("store: stat %s: %w", key, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return Info{}, s.statusError("stat", key, resp)
	}
	size := resp.ContentLength
	if size < 0 {
		size = 0
	}
	return Info{Key: key, Kind: key.Kind(), Size: size}, nil
}

// List implements Store against GET /v1/artifacts?kind=.
func (s *HTTP) List(kind string) ([]Info, error) {
	if kind != "" {
		if err := ValidateKind(kind); err != nil {
			return nil, err
		}
	}
	u := s.base + "/v1/artifacts"
	if kind != "" {
		u += "?kind=" + url.QueryEscape(kind)
	}
	resp, err := s.doRetry(http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("store: list %q: %w", kind, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, s.statusError("list", Key(kind), resp)
	}
	var infos []Info
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("store: list %q: decode: %w", kind, err)
	}
	sortInfos(infos)
	return infos, nil
}

func (s *HTTP) keyURL(key Key) string {
	return s.base + "/v1/artifacts/" + string(key)
}

// doRetry performs one request, replaying it after jittered exponential
// backoff on transient failures (transport errors, 5xx, 429, 408).
// Every request on this wire is idempotent — reads by content address,
// writes of content-addressed bytes — so replaying is always safe.
func (s *HTTP) doRetry(method, url string, body []byte) (*http.Response, error) {
	delay := s.backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := s.hc.Do(req)
		switch {
		case err != nil:
			lastErr = err
		case transientStatus(resp.StatusCode):
			lastErr = fmt.Errorf("server returned %d", resp.StatusCode)
			drain(resp)
		default:
			return resp, nil
		}
		if attempt >= s.retries {
			return nil, lastErr
		}
		// ±50% jitter keeps a fleet of retrying clients from phase-locking
		// onto a recovering service.
		sleep := time.Duration(float64(delay) * (0.5 + rand.Float64()))
		time.Sleep(sleep)
		delay *= 2
	}
}

// transientStatus reports whether a status code is worth retrying.
func transientStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests || code == http.StatusRequestTimeout
}

// statusError maps a non-2xx artifact-wire response onto the store
// sentinels: 404 is ErrNotFound, 400 is ErrBadKey.
func (s *HTTP) statusError(op string, key Key, resp *http.Response) error {
	msg := resp.Status
	var ae struct {
		Error string `json:"error"`
	}
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
		if json.Unmarshal(b, &ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	case http.StatusBadRequest:
		return fmt.Errorf("%w: %s: remote: %s", ErrBadKey, key, msg)
	}
	return fmt.Errorf("store: %s %s: remote returned %d: %s", op, key, resp.StatusCode, msg)
}

// drain discards and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
