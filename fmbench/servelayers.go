package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"filtermap"

	"filtermap/internal/engine"
	"filtermap/internal/longitudinal"
)

// Per-layer figures of the server workloads: deltas of GET /metrics, a
// client-side hit/miss split, and replays of the store, diff and monitor
// layers after the timed window.

// metricsDoc is the part of GET /metrics the benchmark reads.
type metricsDoc struct {
	Cache struct {
		Hits, Misses, Coalesced, Invalidated uint64
	}
	Runs      map[string]uint64
	Snapshots struct{ Deduped uint64 }
	Monitor   *struct {
		SnapshotsDeduped uint64 `json:"snapshots_deduped"`
	}
	Cluster *struct {
		Counters struct {
			LeasesGranted uint64 `json:"leases_granted"`
			LeasesExpired uint64 `json:"leases_expired"`
			ShardsStolen  uint64 `json:"shards_stolen"`
			ShardsRetried uint64 `json:"shards_retried"`
		}
	}
}

func (m metricsDoc) monitorDeduped() uint64 {
	if m.Monitor == nil {
		return 0
	}
	return m.Monitor.SnapshotsDeduped
}

func scrapeMetrics(e *serveEnv) (metricsDoc, error) {
	var doc metricsDoc
	status, body, err := e.call("GET", "/metrics", "")
	if err != nil {
		return doc, err
	}
	if err := expectStatus("GET /metrics", status, body, http.StatusOK); err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(body, &doc)
}

// fillServerDelta records the cache and pipeline-run counters the server
// moved between two scrapes.
func fillServerDelta(layers map[string]float64, a, b metricsDoc) {
	hits := float64(b.Cache.Hits - a.Cache.Hits)
	misses := float64(b.Cache.Misses - a.Cache.Misses)
	if hits+misses > 0 {
		layers["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	layers["server.coalesced"] = float64(b.Cache.Coalesced - a.Cache.Coalesced)
	layers["server.invalidated"] = float64(b.Cache.Invalidated - a.Cache.Invalidated)
	for _, kind := range []string{"identify", "characterize", "mechanisms", "discover"} {
		layers["server.runs."+kind] = float64(b.Runs[kind] - a.Runs[kind])
	}
}

// fillHitMiss splits keyed-read latencies into cache hits and misses as
// the client can tell them apart: the first request for a key in the run
// is a miss; a repeat within hitWindow requests of the previous one, with
// no snapshot write or monitor tick in between (either may invalidate),
// is a hit. Default reports are cached by the warm-up.
func fillHitMiss(layers map[string]float64, samples []sample) {
	const hitWindow = 100
	sorted := append([]sample(nil), samples...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].req.due < sorted[j].req.due })
	last := make(map[string]int)
	for _, name := range defaultReports {
		last["report:"+name] = -1
	}
	lastWrite := -1
	var hit, miss []float64
	for i, s := range sorted {
		r := s.req
		switch {
		case r.class == classTick || (r.class == classWrite && r.method == "POST" && !r.job):
			lastWrite = i
			continue
		case r.class != classRead || s.err != nil:
			continue
		}
		prev, seen := last[r.key]
		last[r.key] = i
		switch {
		case !seen:
			miss = append(miss, ms(s.lat))
		case i-prev <= hitWindow && prev > lastWrite:
			hit = append(hit, us(s.lat))
		}
	}
	layers["server.hit_p50_us"] = percentile(hit, 50)
	layers["server.miss_p50_ms"] = percentile(miss, 50)
}

// replayStore copies every snapshot the run left in the server's store
// into a fresh file-backed store, timing each Append, then times a
// longitudinal diff between each pair of consecutive snapshots of a kind.
func replayStore(ctx context.Context, e *serveEnv, layers map[string]float64) error {
	status, body, err := e.call("GET", "/v1/snapshots", "")
	if err != nil {
		return err
	}
	if err := expectStatus("GET /v1/snapshots", status, body, http.StatusOK); err != nil {
		return err
	}
	var list struct{ Snapshots []filtermap.SnapshotMeta }
	if err := json.Unmarshal(body, &list); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "fmbench-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := filtermap.OpenStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()

	var appendMs, diffMs []float64
	prev := make(map[string]longitudinal.Input)
	diffs := filtermap.NewDiffEngine()
	for _, m := range list.Snapshots {
		path := fmt.Sprintf("/v1/snapshots/%d", m.Seq)
		status, body, err := e.call("GET", path, "")
		if err != nil {
			return err
		}
		if err := expectStatus("GET "+path, status, body, http.StatusOK); err != nil {
			return err
		}
		var got struct {
			Meta filtermap.SnapshotMeta
			Body json.RawMessage
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		start := time.Now()
		meta, err := st.Append(filtermap.Snapshot{Kind: got.Meta.Kind, At: got.Meta.At, Config: got.Meta.Config, Note: got.Meta.Note, Body: got.Body})
		appendMs = append(appendMs, ms(time.Since(start)))
		if err != nil {
			return err
		}
		in := longitudinal.Input{Meta: meta, Body: got.Body}
		if p, ok := prev[meta.Kind]; ok {
			start := time.Now()
			if _, err := diffs.Diff(ctx, p, in); err != nil {
				return err
			}
			diffMs = append(diffMs, ms(time.Since(start)))
		}
		prev[meta.Kind] = in
	}
	layers["store.append_ms"] = mean(appendMs)
	layers["longitudinal.diff_ms"] = mean(diffMs)
	return nil
}

// replayMonitor runs a standalone monitor with the server's monitor
// options (city world, default plans, seed 0) for ticks ticks, with an
// engine stats registry and stage recorder attached, and records the
// monitor's per-tick work and the share of tick time the scan stage
// takes.
func replayMonitor(ctx context.Context, ticks int, layers map[string]float64) error {
	st, err := filtermap.OpenStore("")
	if err != nil {
		return err
	}
	defer st.Close()
	rec := newStageRecorder()
	opts := append(rec.options(), engine.WithStats(filtermap.NewStats()))
	mon, err := filtermap.NewMonitor(filtermap.MonitorOptions{World: filtermap.Options{Scale: filtermap.ScaleCity}, Engine: opts}, st)
	if err != nil {
		return err
	}
	defer mon.Close()
	tr := &tracer{}
	for range ticks {
		h := tr.begin("tick", 0)
		_, err := mon.RunTicks(ctx, 1)
		tr.finish(h)
		rec.drainInto(tr, h)
		if err != nil {
			return err
		}
	}
	c := mon.Counters()
	layers["monitor.plan_runs"] = float64(c.PlanRuns) / float64(ticks)
	layers["monitor.churn_ops"] = float64(c.ChurnOps) / float64(ticks)
	layers["monitor.scan_share"] = 1 - tr.unattributedShare("tick", func(n string) bool { return n == "stage.scan" })
	fillStages(layers, rec, ticks)
	layers["scanner.scan_ms"] = tr.totalMs("stage.scan") / float64(ticks)
	return nil
}
