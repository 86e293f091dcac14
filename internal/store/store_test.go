package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type sample struct {
	Name  string    `json:"name"`
	Count int       `json:"count"`
	Vals  []float64 `json:"vals,omitempty"`
}

// backends returns one fresh store per backend, by name.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	fsStore, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatalf("NewFS: %v", err)
	}
	return map[string]Store{"fs": fsStore, "mem": NewMem()}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			in := sample{Name: "alpha", Count: 3, Vals: []float64{1.25, -0.5}}
			key, err := st.Put("sample", in)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			if key.Kind() != "sample" {
				t.Errorf("key kind = %q, want sample", key.Kind())
			}
			out, err := Get[sample](st, key)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if out.Name != in.Name || out.Count != in.Count || len(out.Vals) != 2 || out.Vals[0] != 1.25 || out.Vals[1] != -0.5 {
				t.Errorf("round trip mismatch: got %+v, want %+v", out, in)
			}
			info, err := st.Stat(key)
			if err != nil {
				t.Fatalf("Stat: %v", err)
			}
			if info.Key != key || info.Kind != "sample" || info.Size <= 0 {
				t.Errorf("Stat = %+v", info)
			}
		})
	}
}

// The content address must be a pure function of the payload value:
// stable across repeated puts, across backends, and across runs. The
// pinned golden key catches accidental canonicalization drift (field
// reordering, indent changes, envelope hashing changes).
func TestContentAddressStability(t *testing.T) {
	const golden = "sample/b74bda576403903d3b4123507b84a28add8efc5dd17c5f78b1010e137f3c24c6"
	in := sample{Name: "golden", Count: 7, Vals: []float64{0.125}}
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			k1, err := st.Put("sample", in)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			k2, err := st.Put("sample", in)
			if err != nil {
				t.Fatalf("Put again: %v", err)
			}
			if k1 != k2 {
				t.Errorf("repeated Put changed the key: %s vs %s", k1, k2)
			}
			kf, err := KeyFor("sample", in)
			if err != nil {
				t.Fatalf("KeyFor: %v", err)
			}
			if kf != k1 {
				t.Errorf("KeyFor = %s, Put = %s", kf, k1)
			}
			if string(k1) != golden {
				t.Errorf("content address drifted:\n got  %s\n want %s", k1, golden)
			}
		})
	}
}

func TestGetNotFound(t *testing.T) {
	missing := Key("sample/" + strings.Repeat("ab", 32))
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := st.Get(missing); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get missing: want ErrNotFound, got %v", err)
			}
			if _, err := st.Stat(missing); !errors.Is(err, ErrNotFound) {
				t.Errorf("Stat missing: want ErrNotFound, got %v", err)
			}
		})
	}
}

func TestBadKeysRejected(t *testing.T) {
	st := NewMem()
	for _, key := range []Key{"", "no-slash", "Bad-Kind/" + Key(strings.Repeat("ab", 32)), "sample/short", "sample/" + Key(strings.Repeat("zz", 32))} {
		if _, err := st.Get(key); !errors.Is(err, ErrBadKey) {
			t.Errorf("Get(%q): want ErrBadKey, got %v", key, err)
		}
	}
	if _, err := st.Put("../escape", sample{}); !errors.Is(err, ErrBadKey) {
		t.Errorf("Put with path-escaping kind: want ErrBadKey, got %v", err)
	}
}

// A corrupted envelope — truncated JSON, a lying kind field, or a payload
// whose bytes no longer hash to the address — must be rejected with
// ErrCorrupt, never returned as a zero-valued artifact.
func TestCorruptEnvelopeRejected(t *testing.T) {
	dir := t.TempDir()
	fsStore, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := fsStore.Put("sample", sample{Name: "x", Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Kind(), key.Hash()+".json")

	cases := map[string][]byte{
		"truncated":       []byte(`{"kind":"sample","schemaVersion":1,"pay`),
		"wrong-kind":      mustEnvelope(t, "other", sample{Name: "x", Count: 1}),
		"tampered":        mustEnvelope(t, "sample", sample{Name: "tampered", Count: 99}),
		"bad-schema":      []byte(`{"kind":"sample","schemaVersion":99,"payload":{}}`),
		"not-an-envelope": []byte(`[1,2,3]`),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := fsStore.Get(key); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Get of %s envelope: want ErrCorrupt, got %v", name, err)
			}
		})
	}
}

// mustEnvelope builds envelope bytes claiming the given kind (hash will
// not match the original key unless payload is identical).
func mustEnvelope(t *testing.T, kind string, payload any) []byte {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Envelope{Kind: kind, SchemaVersion: SchemaVersion, Payload: raw})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestList(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			var want []Key
			for i := 0; i < 3; i++ {
				k, err := st.Put("sample", sample{Name: "n", Count: i})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, k)
			}
			if _, err := st.Put("other-kind", sample{Name: "o"}); err != nil {
				t.Fatal(err)
			}
			infos, err := st.List("sample")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			if len(infos) != 3 {
				t.Fatalf("List(sample) = %d entries, want 3", len(infos))
			}
			for i := 1; i < len(infos); i++ {
				if infos[i-1].Key >= infos[i].Key {
					t.Errorf("List not sorted: %s before %s", infos[i-1].Key, infos[i].Key)
				}
			}
			all, err := st.List("")
			if err != nil {
				t.Fatalf("List all: %v", err)
			}
			if len(all) != 4 {
				t.Errorf("List(\"\") = %d entries, want 4", len(all))
			}
			_ = want
		})
	}
}

// The envelope bytes Encode produces must themselves decode cleanly —
// the round trip every backend relies on.
func TestEncodeDecodeEnvelope(t *testing.T) {
	key, b, err := Encode("sample", sample{Name: "env", Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	env, err := DecodeEnvelope(key, b)
	if err != nil {
		t.Fatalf("DecodeEnvelope: %v", err)
	}
	var out sample
	if err := env.Decode("sample", &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Name != "env" || out.Count != 2 {
		t.Errorf("decoded %+v", out)
	}
	if err := env.Decode("wrong", &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Decode with wrong kind: want ErrCorrupt, got %v", err)
	}
}

// FuzzDecodeEnvelope mutates one byte of a valid Encode result: the
// envelope of a sample payload drawn from name, count and vals, whose
// byte at pos (modulo its length) becomes b. DecodeEnvelope must either
// fail with ErrCorrupt or return an envelope with the original Kind and
// Payload bytes, never panic. A mutation can keep the envelope valid
// (a byte set to its own value, the trailing newline set to other
// whitespace, or a field name changed in case, which encoding/json
// matches case-insensitively), but no byte of the payload can change
// without the hash check failing.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add("w", int64(3), 0.5, uint16(2), byte('K'))
	f.Add("", int64(-1), math.Copysign(0, -1), uint16(70), byte(' '))
	f.Fuzz(func(t *testing.T, name string, count int64, val float64, pos uint16, b byte) {
		p := sample{Name: name, Count: int(count)}
		if !math.IsNaN(val) && !math.IsInf(val, 0) {
			p.Vals = []float64{val}
		}
		key, enc, err := Encode("sample", p)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		orig, err := DecodeEnvelope(key, enc)
		if err != nil {
			t.Fatalf("DecodeEnvelope of the unmutated envelope: %v", err)
		}
		mutated := append([]byte(nil), enc...)
		mutated[int(pos)%len(mutated)] = b
		env, err := DecodeEnvelope(key, mutated)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mutated %q: error %v is not ErrCorrupt", mutated, err)
			}
			return
		}
		if env.Kind != orig.Kind || !bytes.Equal(env.Payload, orig.Payload) {
			t.Fatalf("mutated %q decoded as kind %q payload %s, want %q %s",
				mutated, env.Kind, env.Payload, orig.Kind, orig.Payload)
		}
	})
}
