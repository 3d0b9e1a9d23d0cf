package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// digest is the hex SHA-256 of b, the form recorded in config.go.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tally counts attempted and failed operations. A failed operation is
// one that returned an error or whose output did not pass its check;
// the first few reasons are kept for the human-readable report. It is
// safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

const maxReasons = 8

// record counts one operation; a nil err is a success.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, err.Error())
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// errorRatio is failed over attempted (0 when nothing was attempted).
func (t *tally) errorRatio() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// expectBytes fails when got differs from want, naming the artifact.
func expectBytes(name string, got, want []byte) error {
	if string(got) == string(want) {
		return nil
	}
	return fmt.Errorf("%s: output differs from the reference (%d bytes, want %d; digest %.12s, want %.12s)",
		name, len(got), len(want), digest(got), digest(want))
}

// expectDigest fails when got's digest is not want.
func expectDigest(name string, got []byte, want string) error {
	if d := digest(got); d != want {
		return fmt.Errorf("%s: digest %s, want %.12s", name, d, want)
	}
	return nil
}

// sameEveryTime remembers the first body seen per key and fails any later
// body that differs: within one run, a key must always answer with the
// same bytes. It is safe for concurrent use.
type sameEveryTime struct {
	mu    sync.Mutex
	first map[string]string
}

func newSameEveryTime() *sameEveryTime { return &sameEveryTime{first: make(map[string]string)} }

func (s *sameEveryTime) check(key string, body []byte) error {
	d := digest(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	want, seen := s.first[key]
	if !seen {
		s.first[key] = d
		return nil
	}
	if d != want {
		return fmt.Errorf("%s: body changed within the run (digest %.12s, first %.12s)", key, d, want)
	}
	return nil
}

// readGoldens loads the committed golden files the paper-small checks
// compare against, from testdata/ under the checkout root.
func readGoldens(root string, names ...string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(root, "testdata", n+".golden"))
		if err != nil {
			return nil, fmt.Errorf("read golden: %w", err)
		}
		out[n] = b
	}
	return out, nil
}
