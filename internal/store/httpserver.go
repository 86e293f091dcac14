package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// maxUploadBytes bounds one uploaded envelope on the artifact wire
// (trained models for the largest paper configurations are far below
// this).
const maxUploadBytes = 256 << 20

// NewHandler exposes a Store over the artifact wire: `sparkxd store
// serve` mounts it to make any local store a standalone artifact
// service, and a job coordinator mounts its artifact routes:
//
//	GET  /v1/artifacts?kind=      Info listing of one kind ("" = all)
//	GET  /v1/artifacts/{key...}   canonical envelope bytes (trailing \n)
//	HEAD /v1/artifacts/{key...}   existence probe (Content-Length = size)
//	PUT  /v1/artifacts/{key...}   store an envelope, verified against its
//	                              content address (200/201)
//	GET  /v1/healthz              liveness probe
//
// Error contract (mapped back to sentinels by the HTTP store client):
// malformed keys are 400, absent keys 404, oversized uploads 413, and a
// store-side failure 500.
func NewHandler(st Store) http.Handler {
	h := &storeHandler{st: st}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/artifacts", h.handleList)
	mux.HandleFunc("GET /v1/artifacts/{key...}", h.handleGet)
	mux.HandleFunc("PUT /v1/artifacts/{key...}", h.handlePut)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeWireJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

type storeHandler struct {
	st Store
}

// wireError is the JSON error body of every non-2xx artifact response.
type wireError struct {
	Error string `json:"error"`
}

func writeWireJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeWireError(w http.ResponseWriter, code int, format string, args ...any) {
	writeWireJSON(w, code, wireError{Error: fmt.Sprintf(format, args...)})
}

// writeArtifactError maps a store failure onto the wire's status codes:
// a key the store has never seen is 404, a malformed key 400, anything
// else (IO failure, corrupt stored bytes) 500.
func writeArtifactError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrBadKey):
		code = http.StatusBadRequest
	}
	writeWireError(w, code, "%v", err)
}

func (h *storeHandler) handleGet(w http.ResponseWriter, r *http.Request) {
	key := Key(r.PathValue("key"))
	if key == "" {
		writeWireError(w, http.StatusNotFound, "no artifact key")
		return
	}
	if err := key.Validate(); err != nil {
		writeWireError(w, http.StatusBadRequest, "%v", err)
		return
	}
	env, err := h.st.Get(key)
	if err != nil {
		writeArtifactError(w, err)
		return
	}
	serveEnvelope(w, env)
}

func (h *storeHandler) handlePut(w http.ResponseWriter, r *http.Request) {
	key := Key(r.PathValue("key"))
	if err := key.Validate(); err != nil {
		writeWireError(w, http.StatusBadRequest, "%v", err)
		return
	}
	env, code, err := readUploadedEnvelope(key, r.Body)
	if err != nil {
		writeWireError(w, code, "%v", err)
		return
	}
	got, err := h.st.Put(env.Kind, env.Payload)
	if err != nil {
		writeWireError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if got != key {
		// Cannot happen after DecodeEnvelope verified the hash, unless the
		// backend canonicalizes differently — refuse rather than lie.
		writeWireError(w, http.StatusInternalServerError, "stored at %s, expected %s", got, key)
		return
	}
	writeWireJSON(w, http.StatusCreated, map[string]string{"key": string(key)})
}

func (h *storeHandler) handleList(w http.ResponseWriter, r *http.Request) {
	kind := r.URL.Query().Get("kind")
	infos, err := h.st.List(kind)
	if err != nil {
		writeArtifactError(w, err)
		return
	}
	if infos == nil {
		infos = []Info{}
	}
	writeWireJSON(w, http.StatusOK, infos)
}

// serveEnvelope writes an envelope's canonical encoding (plus trailing
// newline) with an explicit Content-Length, so HEAD probes — which Go's
// ServeMux routes through GET patterns with the body suppressed — still
// report the envelope size.
func serveEnvelope(w http.ResponseWriter, env *Envelope) {
	b, err := json.Marshal(env)
	if err != nil {
		writeWireError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// readUploadedEnvelope reads and verifies one uploaded envelope against
// its claimed key. On failure it returns the HTTP status the wire
// contract assigns: 400 for bytes that do not verify, 413 for an
// oversized upload.
func readUploadedEnvelope(key Key, body io.Reader) (*Envelope, int, error) {
	b, err := io.ReadAll(io.LimitReader(body, maxUploadBytes+1))
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("read upload: %w", err)
	}
	if len(b) > maxUploadBytes {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("upload exceeds %d bytes", maxUploadBytes)
	}
	env, err := DecodeEnvelope(key, bytes.TrimRight(b, "\r\n"))
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return env, http.StatusOK, nil
}
