package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"filtermap"
	"filtermap/internal/pipeline"
	"filtermap/internal/store"
)

// TestMainListEmpty runs the real main's list subcommand against a fresh
// store directory.
func TestMainListEmpty(t *testing.T) {
	dir := t.TempDir()
	out := captureStdout(t, func() {
		os.Args = []string{"fmhist", "-dir", dir, "list"}
		main()
	})
	if !strings.Contains(out, "no snapshots") {
		t.Fatalf("fmhist list on an empty store should say so:\n%s", out)
	}
}

// TestRecordRunMatchesServerSnapshot checks, for every snapshot kind,
// that the body record -run appends is byte-identical to the body
// fmserve stores for POST /v1/snapshots of the same kind on the same
// seed, under the same content ID.
func TestRecordRunMatchesServerSnapshot(t *testing.T) {
	srv, err := filtermap.NewServer(filtermap.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // test teardown

	for _, kind := range []string{"identify", "table4", "discovery", "mechanisms"} {
		t.Run(kind, func(t *testing.T) {
			k, ok := pipeline.BySnapshot(kind)
			if !ok {
				t.Fatalf("no pipeline records snapshot kind %q", kind)
			}
			var served store.Meta
			serve(t, srv, http.MethodPost, "/v1/snapshots", `{"kind":"`+k.Name+`"}`, http.StatusCreated, &served)
			var got struct {
				Body json.RawMessage `json:"body"`
			}
			serve(t, srv, http.MethodGet, "/v1/snapshots/"+served.ID, "", http.StatusOK, &got)

			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			captureStdout(t, func() {
				if err := record(st, []string{"-run", "-kind", kind}); err != nil {
					t.Errorf("record -run -kind %s: %v", kind, err)
				}
			})
			meta, body, err := st.Get("latest")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, got.Body) {
				t.Fatalf("record -run body differs from the server's:\n fmhist %s\nfmserve %s", body, got.Body)
			}
			if meta.Kind != served.Kind || meta.ID != served.ID {
				t.Fatalf("record -run stored %s/%s, server %s/%s", meta.Kind, meta.ID, served.Kind, served.ID)
			}
		})
	}
}

// serve sends one request through h and decodes the JSON response.
func serve(t *testing.T, h http.Handler, method, path, body string, status int, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code != status {
		t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, status, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
}

// captureStdout redirects os.Stdout around fn and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r) //nolint:errcheck // read side of our own pipe
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = orig
	return <-done
}
