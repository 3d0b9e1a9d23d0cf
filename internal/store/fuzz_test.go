package store

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"testing"
	"time"

	"filtermap/internal/simclock"
)

// FuzzStoreReopen appends arbitrary bytes to the tail segment of a store
// holding two acknowledged snapshots — a crash mid-append, bit rot, or a
// forged record — and reopens it. Open must recover: both acknowledged
// snapshots keep their bodies, every listed record reads back, and a
// second reopen lists exactly what the first did. The seed corpus
// (testdata/fuzz/FuzzStoreReopen) holds a torn line, a flipped body byte,
// a record with a wrong content ID, a valid record missing its final
// newline and a ref to a body the log does not hold.
func FuzzStoreReopen(f *testing.F) {
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		s, err := Open(dir, WithoutSync())
		if err != nil {
			t.Fatal(err)
		}
		bodies := map[uint64][]byte{}
		for i := 0; i < 2; i++ {
			m, err := s.Append(testSnap("identify", simclock.Epoch.Add(time.Duration(i)*time.Hour), strconv.Itoa(i)))
			if err != nil {
				t.Fatal(err)
			}
			_, body, err := s.Get(strconv.FormatUint(m.Seq, 10))
			if err != nil {
				t.Fatal(err)
			}
			bodies[m.Seq] = body
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.OpenFile(s.segPath(1), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.Write(tail); err != nil {
			t.Fatal(err)
		}
		seg.Close()

		first := reopenChecked(t, dir, bodies)
		if second := reopenChecked(t, dir, bodies); !bytes.Equal(first, second) {
			t.Fatalf("second reopen lists\n%s\nfirst listed\n%s", second, first)
		}
	})
}

// reopenChecked opens dir, checks the acknowledged bodies and that every
// listed record is readable, and returns the listed metas as JSON.
func reopenChecked(t *testing.T, dir string, bodies map[uint64][]byte) []byte {
	t.Helper()
	s, err := Open(dir, WithoutSync())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for seq, want := range bodies {
		_, got, err := s.Get(strconv.FormatUint(seq, 10))
		if err != nil {
			t.Fatalf("acknowledged snapshot %d: %v", seq, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acknowledged snapshot %d body = %s, want %s", seq, got, want)
		}
	}
	metas := s.List(Query{})
	for _, m := range metas {
		if _, _, err := s.Get(strconv.FormatUint(m.Seq, 10)); err != nil {
			t.Fatalf("listed record %d unreadable: %v", m.Seq, err)
		}
	}
	b, err := json.Marshal(metas)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
