package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// FS is the filesystem Store backend. Envelopes live at
// <root>/<kind>/<hash>.json; writes go through a temp file + rename so a
// crashed writer never leaves a half-written envelope at a valid
// address.
type FS struct {
	root string
}

// NewFS opens (creating if needed) a filesystem store rooted at dir.
func NewFS(dir string) (*FS, error) {
	if dir == "" {
		return nil, errors.New("store: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &FS{root: dir}, nil
}

func (s *FS) path(key Key) string {
	return filepath.Join(s.root, key.Kind(), key.Hash()+".json")
}

// Put implements Store.
func (s *FS) Put(kind string, payload any) (Key, error) {
	key, b, err := Encode(kind, payload)
	if err != nil {
		return "", err
	}
	path := s.path(key)
	if _, err := os.Stat(path); err == nil {
		// Content-addressed: an existing file already holds these bytes.
		return key, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("store: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return "", fmt.Errorf("store: put %s: %w", key, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("store: put %s: %w", key, err)
	}
	return key, nil
}

// Get implements Store.
func (s *FS) Get(key Key) (*Envelope, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("store: get %s: %w", key, err)
	}
	return DecodeEnvelope(key, b)
}

// Stat implements Store.
func (s *FS) Stat(key Key) (Info, error) {
	if err := key.Validate(); err != nil {
		return Info{}, err
	}
	fi, err := os.Stat(s.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Info{}, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return Info{}, fmt.Errorf("store: stat %s: %w", key, err)
	}
	return Info{Key: key, Kind: key.Kind(), Size: fi.Size()}, nil
}

// List implements Store.
func (s *FS) List(kind string) ([]Info, error) {
	if kind != "" {
		if err := ValidateKind(kind); err != nil {
			return nil, err
		}
	}
	var infos []Info
	kinds, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	for _, kd := range kinds {
		if !kd.IsDir() || (kind != "" && kd.Name() != kind) {
			continue
		}
		if ValidateKind(kd.Name()) != nil {
			continue // stray directory, not ours
		}
		entries, err := os.ReadDir(filepath.Join(s.root, kd.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: list %s: %w", kd.Name(), err)
		}
		for _, e := range entries {
			hash, ok := strings.CutSuffix(e.Name(), ".json")
			if !ok || e.IsDir() {
				continue
			}
			key := Key(kd.Name() + "/" + hash)
			if key.Validate() != nil {
				continue // temp files, strays
			}
			fi, err := e.Info()
			if err != nil {
				return nil, fmt.Errorf("store: list %s: %w", key, err)
			}
			infos = append(infos, Info{Key: key, Kind: kd.Name(), Size: fi.Size()})
		}
	}
	sortInfos(infos)
	return infos, nil
}
