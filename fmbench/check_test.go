package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestTallyCountsEveryFailure(t *testing.T) {
	var c tally
	c.record(nil)
	for range maxReasons + 3 {
		c.record(errors.New("wrong"))
	}
	attempted, failed := c.counts()
	if attempted != maxReasons+4 || failed != maxReasons+3 {
		t.Fatalf("counts = %d attempted, %d failed", attempted, failed)
	}
	if len(c.reasons) != maxReasons {
		t.Fatalf("kept %d reasons, want %d", len(c.reasons), maxReasons)
	}
}

func TestSameEveryTimeCatchesAChangedBody(t *testing.T) {
	s := newSameEveryTime()
	if err := s.check("k", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.check("k", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.check("k", []byte("b")); err == nil {
		t.Fatal("changed body passed")
	}
	if err := s.check("other", []byte("b")); err != nil {
		t.Fatal(err)
	}
}

func TestDigestCheckCatchesCorruption(t *testing.T) {
	body := []byte("Figure 1: Locations of URL filter installations\n")
	if err := expectDigest("figure1", body, digest(body)); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), body...)
	corrupt[3] ^= 1
	if err := expectDigest("figure1", corrupt, digest(body)); err == nil {
		t.Fatal("corrupted body passed the digest check")
	}
}

// TestPaperChecksCatchCorruption runs one real paper-small op: its
// artifacts pass, and flipping one byte of any of them fails the check.
func TestPaperChecksCatchCorruption(t *testing.T) {
	goldens, err := readGoldens("..", paperGoldens...)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(paperSteps))
	for i := range order {
		order[i] = i
	}
	_, p, err := paperOnce(context.Background(), order, nil, nil, goldens)
	if err != nil {
		t.Fatalf("clean op failed its checks: %v", err)
	}
	names := make([]string, 0, len(p.out))
	for n := range p.out {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) != len(paperGoldens)+len(paperDigests) {
		t.Fatalf("op produced %d artifacts, want %d", len(names), len(paperGoldens)+len(paperDigests))
	}
	for _, n := range names {
		out := make(map[string][]byte, len(p.out))
		for k, v := range p.out {
			out[k] = v
		}
		b := append([]byte(nil), out[n]...)
		b[len(b)/2] ^= 0x20
		out[n] = b
		if err := checkPaper(out, goldens); err == nil || !strings.Contains(err.Error(), n) {
			t.Errorf("corrupting %s: check returned %v", n, err)
		}
	}
}

// TestServeChecksCatchCorruption drives the serve-mixed request checks
// against a stub server whose report body is corrupted and whose keyed
// answer changes between calls.
func TestServeChecksCatchCorruption(t *testing.T) {
	calls := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/reports/table1":
			w.Write([]byte(`{"rows":"tampered"}` + "\n"))
		case "/v1/identify":
			calls++
			w.Write([]byte(strings.Repeat("x", calls)))
		default:
			http.NotFound(w, r)
		}
	}))
	defer hs.Close()
	st := &serveState{env: &serveEnv{base: hs.URL, client: hs.Client()}, same: newSameEveryTime()}

	report := request{class: classRead, method: "GET", path: "/v1/reports/table1", key: "report:table1"}
	if err := st.exec(report); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("corrupted report: %v", err)
	}
	keyed := request{class: classRead, method: "POST", path: "/v1/identify?wait=1", body: `{}`, key: "identify {}"}
	if err := st.exec(keyed); err != nil {
		t.Fatalf("first keyed read: %v", err)
	}
	if err := st.exec(keyed); err == nil {
		t.Error("changed keyed body passed")
	}
	missing := request{class: classRead, method: "GET", path: "/v1/reports/nope", key: "report:nope"}
	if err := st.exec(missing); err == nil {
		t.Error("404 passed")
	}
}

func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, listedWorkloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, listedWorkloadNames())
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", e2e, endToEndNames)
	}
	var listed []metricDef
	for _, d := range perLayer {
		if d.listed {
			listed = append(listed, d)
		}
	}
	if len(spec.PerLayer) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, want %d", len(spec.PerLayer), len(listed))
	}
	for i, m := range spec.PerLayer {
		if m.Name != listed[i].name || m.Unit != listed[i].unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, m.Name, m.Unit, listed[i].name, listed[i].unit)
		}
	}
}
