// Package store is the content-addressed artifact store beneath the
// sparkxd job service. Every artifact is wrapped in a typed envelope
// {kind, schemaVersion, payload} and addressed by a key derived from its
// content:
//
//	<kind>/<sha256-of-canonical-json-payload>
//
// Canonical JSON is the output of encoding/json.Marshal (compact, struct
// fields in declaration order, map keys sorted), so the same artifact
// value always hashes to the same key, across processes and across runs.
// Content addressing makes writes idempotent — storing the same artifact
// twice is a no-op that returns the same key — and lets readers verify
// integrity: Get re-hashes the payload and rejects envelopes whose bytes
// do not match their own address.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// SchemaVersion is the envelope schema this package reads and writes.
const SchemaVersion = 1

// Typed failures of store operations. Backends wrap these so callers can
// test with errors.Is regardless of the backend in use.
var (
	// ErrNotFound marks a Get/Stat of a key the store has never seen.
	ErrNotFound = errors.New("store: artifact not found")
	// ErrCorrupt marks an envelope that cannot be trusted: unparseable
	// JSON, a kind that disagrees with the key, a payload whose hash does
	// not match its address, or an unsupported schema version.
	ErrCorrupt = errors.New("store: corrupt artifact envelope")
	// ErrBadKey marks a syntactically invalid key or kind.
	ErrBadKey = errors.New("store: malformed key")
)

// Key is a content address: "<kind>/<64 hex sha256 digits>".
type Key string

// Kind returns the key's artifact kind (the part before the slash).
func (k Key) Kind() string {
	kind, _, _ := strings.Cut(string(k), "/")
	return kind
}

// Hash returns the key's hex content hash (the part after the slash).
func (k Key) Hash() string {
	_, h, _ := strings.Cut(string(k), "/")
	return h
}

// Validate checks the key's syntax.
func (k Key) Validate() error {
	kind, h, ok := strings.Cut(string(k), "/")
	if !ok {
		return fmt.Errorf("%w: %q (want kind/hash)", ErrBadKey, k)
	}
	if err := ValidateKind(kind); err != nil {
		return err
	}
	if len(h) != sha256.Size*2 {
		return fmt.Errorf("%w: %q: hash must be %d hex digits", ErrBadKey, k, sha256.Size*2)
	}
	if _, err := hex.DecodeString(h); err != nil {
		return fmt.Errorf("%w: %q: hash is not hex", ErrBadKey, k)
	}
	return nil
}

// ValidateKind checks that an artifact kind is a safe path segment:
// lowercase letters, digits, and interior dashes.
func ValidateKind(kind string) error {
	if kind == "" {
		return fmt.Errorf("%w: empty kind", ErrBadKey)
	}
	for i, r := range kind {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
		case r == '-' && i > 0 && i < len(kind)-1:
		default:
			return fmt.Errorf("%w: kind %q (want [a-z0-9-], no leading/trailing dash)", ErrBadKey, kind)
		}
	}
	return nil
}

// Envelope is the typed wrapper every stored artifact lives in.
type Envelope struct {
	// Kind names the artifact type ("trained-model", "sweep-report", ...).
	Kind string `json:"kind"`
	// SchemaVersion versions the envelope layout itself.
	SchemaVersion int `json:"schemaVersion"`
	// Payload is the artifact's canonical JSON encoding.
	Payload json.RawMessage `json:"payload"`
}

// Decode unmarshals the envelope's payload into v after checking the
// envelope carries the wanted kind. A kind mismatch or unparseable
// payload satisfies errors.Is(err, ErrCorrupt).
func (e *Envelope) Decode(wantKind string, v any) error {
	if e.Kind != wantKind {
		return fmt.Errorf("%w: envelope holds %q, want %q", ErrCorrupt, e.Kind, wantKind)
	}
	if e.SchemaVersion != SchemaVersion {
		return fmt.Errorf("%w: unsupported schema version %d (want %d)", ErrCorrupt, e.SchemaVersion, SchemaVersion)
	}
	if err := json.Unmarshal(e.Payload, v); err != nil {
		return fmt.Errorf("%w: %q payload: %w", ErrCorrupt, e.Kind, err)
	}
	return nil
}

// Info describes one stored artifact.
type Info struct {
	Key  Key    `json:"key"`
	Kind string `json:"kind"`
	// Size is the size of the envelope encoding in bytes.
	Size int64 `json:"size"`
}

// Store is a content-addressed artifact store. Implementations must be
// safe for concurrent use.
type Store interface {
	// Put stores payload under its content address and returns the key.
	// Storing an identical payload again returns the same key without
	// rewriting anything.
	Put(kind string, payload any) (Key, error)
	// Get returns the verified envelope stored at key, or ErrNotFound.
	Get(key Key) (*Envelope, error)
	// Stat reports whether key exists without decoding its payload.
	Stat(key Key) (Info, error)
	// List enumerates stored artifacts of one kind ("" for all), sorted
	// by key.
	List(kind string) ([]Info, error)
}

// Encode canonicalizes payload and builds its envelope encoding plus
// content-addressed key. The returned bytes end in a newline so envelope
// files are friendly to line-oriented tools.
func Encode(kind string, payload any) (Key, []byte, error) {
	key, canonical, err := keyFor(kind, payload)
	if err != nil {
		return "", nil, err
	}
	b, err := json.Marshal(Envelope{Kind: kind, SchemaVersion: SchemaVersion, Payload: canonical})
	if err != nil {
		return "", nil, fmt.Errorf("store: encode %s envelope: %w", kind, err)
	}
	return key, append(b, '\n'), nil
}

// KeyFor computes the content address payload would be stored under,
// without storing anything.
func KeyFor(kind string, payload any) (Key, error) {
	key, _, err := keyFor(kind, payload)
	return key, err
}

func keyFor(kind string, payload any) (Key, json.RawMessage, error) {
	if err := ValidateKind(kind); err != nil {
		return "", nil, err
	}
	canonical, err := json.Marshal(payload)
	if err != nil {
		return "", nil, fmt.Errorf("store: marshal %s payload: %w", kind, err)
	}
	sum := sha256.Sum256(canonical)
	return Key(kind + "/" + hex.EncodeToString(sum[:])), canonical, nil
}

// DecodeEnvelope parses and verifies the envelope bytes stored at key:
// the JSON must parse, the kind must match the key, and the payload must
// hash back to the key's address. Any violation satisfies
// errors.Is(err, ErrCorrupt).
func DecodeEnvelope(key Key, b []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, key, err)
	}
	if env.Kind != key.Kind() {
		return nil, fmt.Errorf("%w: %s: envelope claims kind %q", ErrCorrupt, key, env.Kind)
	}
	if env.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%w: %s: unsupported schema version %d", ErrCorrupt, key, env.SchemaVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != key.Hash() {
		return nil, fmt.Errorf("%w: %s: payload hash mismatch", ErrCorrupt, key)
	}
	return &env, nil
}

// sortInfos orders a listing by key (the contract of List).
func sortInfos(infos []Info) {
	sort.Slice(infos, func(a, b int) bool { return infos[a].Key < infos[b].Key })
}
