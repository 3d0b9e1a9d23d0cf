package main

import (
	"strings"
	"time"
)

// Helpers that turn what a traced run recorded into per-layer metrics.

// fillRuntime records the Go runtime figures of a traced phase.
func fillRuntime(layers map[string]float64, rt runtimeDelta, heapLive float64) {
	layers["runtime.gc_cpu_share"] = rt.gcCPUShare
	layers["runtime.alloc_mb_per_op"] = rt.allocMBPerOp
	layers["runtime.gc_pause_p99_us"] = rt.pauseP99Us
	layers["runtime.cpu_s_per_op"] = rt.cpuSPerOp
	layers["runtime.heap_live_mb"] = heapLive
}

// fillTraceOverhead records the traced op median and its difference to
// the untraced median of the same run.
func fillTraceOverhead(layers map[string]float64, res *result, traced []time.Duration) {
	p50 := percentile(durationsMs(traced), 50)
	layers["trace.op_p50_ms"] = p50
	layers["trace.overhead_ms"] = p50 - percentile(durationsMs(res.ops), 50)
}

// fillStages records the pooled engine stages an observer saw over ops
// operations: counts per op, exact item-latency percentiles, and busy
// time per op.
func fillStages(layers map[string]float64, rec *stageRecorder, ops int) {
	if ops < 1 {
		return
	}
	per := func(n int) float64 { return float64(n) / float64(ops) }
	layers["scanner.probes"] = per(rec.count("scan"))
	layers["scanner.probe_p50_us"] = rec.pctUs("scan", 50)
	layers["scanner.probe_p99_us"] = rec.pctUs("scan", 99)
	layers["scanner.search_ms"] = rec.sumMs("search") / float64(ops)
	layers["fingerprint.validate_p50_us"] = rec.pctUs("validate", 50)
	layers["measurement.urls"] = per(rec.count("measure"))
	layers["measurement.url_p50_us"] = rec.pctUs("measure", 50)
	layers["measurement.url_p99_us"] = rec.pctUs("measure", 99)
	layers["characterize.isp_ms"] = rec.pctUs("characterize", 50) / 1000
	layers["confirm.campaign_ms"] = rec.pctUs("campaign", 50) / 1000
	layers["discovery.fetches"] = per(rec.count("discover"))
}

// mean is the arithmetic mean of vs (0 for none).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// isStageOrCall accepts the spans engine.unattributed_share counts as
// attributed: engine stage intervals and the world build and render calls
// around them. Wrapper spans that enclose stages (a whole pipeline run)
// are left out, so glue between stages stays visible.
func isStageOrCall(name string) bool {
	return strings.HasPrefix(name, "stage.") || name == "world.build" || name == "report.render"
}
