package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sparkxd"
	"sparkxd/internal/fleetapi"
)

// ErrLeaseLost marks a coordinator answer of 410 Gone: the lease
// expired or was revoked, and the job must be abandoned immediately —
// another worker may already own it.
var ErrLeaseLost = errors.New("worker: lease lost")

// coordClient speaks the fleetapi lease protocol to one coordinator.
type coordClient struct {
	base string
	hc   *http.Client
}

func newCoordClient(baseURL string, hc *http.Client) (*coordClient, error) {
	base := strings.TrimRight(baseURL, "/")
	if base == "" {
		return nil, errors.New("worker: empty coordinator URL")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &coordClient{base: base, hc: hc}, nil
}

// acquire sends one lease request, which the coordinator may hold up
// to req.WaitMillis for a job.
func (c *coordClient) acquire(ctx context.Context, req fleetapi.LeaseRequest) (fleetapi.LeaseResponse, error) {
	var resp fleetapi.LeaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/leases", req, &resp)
	return resp, err
}

// renew extends one lease, delivering req's events and spans.
func (c *coordClient) renew(ctx context.Context, leaseID string, req fleetapi.RenewRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/renew", req, nil)
}

// release hands a lease back for immediate requeue (graceful drain).
func (c *coordClient) release(ctx context.Context, leaseID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/leases/"+leaseID, nil, nil)
}

// complete finishes the leased job with either an uploaded artifact
// role map or a failure message, plus the worker's completion-time
// trace spans.
func (c *coordClient) complete(ctx context.Context, leaseID string, arts map[string]sparkxd.ArtifactKey, failure string, spans []sparkxd.TraceSpan) error {
	return c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/complete",
		fleetapi.CompleteRequest{Artifacts: arts, Error: failure, Spans: spans}, nil)
}

// do performs one JSON round trip. body == nil sends no body; out ==
// nil discards the response body.
func (c *coordClient) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("worker: marshal: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return errorFrom(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("worker: decode response: %w", err)
	}
	return nil
}

// errorFrom turns a non-2xx response into a typed error; 410 Gone maps
// to ErrLeaseLost.
func errorFrom(resp *http.Response) error {
	var ae struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
		if json.Unmarshal(b, &ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
	}
	if resp.StatusCode == http.StatusGone {
		return fmt.Errorf("%w: %s", ErrLeaseLost, msg)
	}
	return fmt.Errorf("worker: coordinator returned %d: %s", resp.StatusCode, msg)
}
