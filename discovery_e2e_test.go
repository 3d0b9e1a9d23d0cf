package filtermap_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"filtermap"

	"filtermap/internal/engine"
	"filtermap/internal/pipeline"
	"filtermap/internal/server"
	"filtermap/internal/world"
)

// End-to-end coverage of the discovery subsystem: the crawl must
// surface blocked URLs absent from every curated list, replay
// byte-for-byte (testdata/discovery.golden; regenerate with
// `make discover-golden`), and produce the same document through the
// CLI path and POST /v1/discover.

func TestGoldenDiscovery(t *testing.T) {
	w, err := filtermap.NewWorld(filtermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Clock.Advance(8 * time.Hour)

	targets, err := w.RunDiscovery(context.Background(), filtermap.DiscoveryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The crawl's whole point: novel blocked URLs the seed lists miss.
	curated := world.CuratedDomains()
	novel := 0
	for _, tgt := range targets {
		for _, f := range tgt.Report.Novel() {
			novel++
			if curated[f.Domain] {
				t.Errorf("%s marked novel but %s is on a curated list", f.URL, f.Domain)
			}
		}
	}
	if novel < 5 {
		t.Fatalf("discovered %d novel blocked URLs across targets, want >= 5", novel)
	}

	compareGolden(t, "discovery.golden", filtermap.Reporter{}.Discovery(0, 0, targets))
}

func TestDiscoverEndpointMatchesCLIDocument(t *testing.T) {
	const rounds, budget = 2, 40
	isps := []string{"YemenNet"}

	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reqBody, err := json.Marshal(pipeline.Params{ISPs: isps, Rounds: rounds, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/discover?wait=1", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/discover status = %d", resp.StatusCode)
	}
	var viaServer bytes.Buffer
	if _, err := viaServer.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	// The CLI path: same world configuration, same warm-up, same caps.
	w, err := filtermap.NewWorld(filtermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Clock.Advance(8 * time.Hour)
	targets, err := w.RunDiscovery(context.Background(), filtermap.DiscoveryOptions{
		ISPs: isps, Rounds: rounds, Budget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	viaCLI, err := json.Marshal(filtermap.Reporter{}.DiscoveryJSON(rounds, budget, targets))
	if err != nil {
		t.Fatal(err)
	}

	if got, want := bytes.TrimSpace(viaServer.Bytes()), bytes.TrimSpace(viaCLI); !bytes.Equal(got, want) {
		t.Fatalf("documents diverge:\nserver: %s\ncli:    %s", got, want)
	}
}

// BenchmarkDiscoveryRounds measures the crawl's probe fan-out at
// different worker counts over one target; dial latency makes the
// parallelism visible. The report must not vary with the worker count.
func BenchmarkDiscoveryRounds(b *testing.B) {
	w := mustWorld(b, filtermap.Options{})
	w.Clock.Advance(8 * time.Hour)
	w.Net.SetDialLatency(2 * time.Millisecond)
	ctx := context.Background()
	seeds := w.DiscoverySeeds("AE")

	var baseline *filtermap.DiscoveryReport
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rep *filtermap.DiscoveryReport
			for i := 0; i < b.N; i++ {
				c, err := w.NewCrawler(filtermap.ISPEtisalat, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				c.Config = c.Config.With(engine.WithWorkers(workers))
				rep = c.Crawl(ctx, seeds)
			}
			b.ReportMetric(float64(len(rep.Novel())), "novel")
			if baseline == nil {
				baseline = rep
			} else if len(rep.Findings) != len(baseline.Findings) || rep.Probed != baseline.Probed {
				b.Fatalf("worker count changed the crawl: %d/%d findings, %d/%d probed",
					len(rep.Findings), len(baseline.Findings), rep.Probed, baseline.Probed)
			}
		})
	}
}
