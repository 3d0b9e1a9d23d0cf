package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// runtimeSample is a point-in-time read of the Go runtime and process
// counters a traced run differences across its timed phase.
type runtimeSample struct {
	gcCPU, totalCPU float64 // runtime CPU-time estimates, seconds
	allocBytes      uint64
	pauses          *metrics.Float64Histogram
	rusageCPU       time.Duration
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var s runtimeSample
	if ss[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ss[0].Value.Float64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ss[2].Value.Uint64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64Histogram {
		s.pauses = ss[3].Value.Float64Histogram()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.rusageCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// runtimeDelta summarises the Go runtime between two samples taken around
// ops operations.
type runtimeDelta struct {
	gcCPUShare   float64
	allocMBPerOp float64
	pauseP99Us   float64
	cpuSPerOp    float64
}

func diffRuntime(a, b runtimeSample, ops int) runtimeDelta {
	var d runtimeDelta
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / tot
	}
	if ops > 0 {
		d.allocMBPerOp = float64(b.allocBytes-a.allocBytes) / (1 << 20) / float64(ops)
		d.cpuSPerOp = (b.rusageCPU - a.rusageCPU).Seconds() / float64(ops)
	}
	d.pauseP99Us = histDeltaP99(a.pauses, b.pauses) * 1e6
	return d
}

// histDeltaP99 is the 99th percentile of the observations added between
// two reads of a cumulative runtime histogram, taken at the upper edge
// of the bucket that holds it (0 without observations).
func histDeltaP99(a, b *metrics.Float64Histogram) float64 {
	if b == nil {
		return 0
	}
	counts := make([]uint64, len(b.Counts))
	var total uint64
	for i, c := range b.Counts {
		if a != nil && i < len(a.Counts) {
			c -= a.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(rank(int(total), 99))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			if upper := b.Buckets[i+1]; !math.IsInf(upper, 1) {
				return upper
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-2]
}

// heapLiveMB collects garbage and reports the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	ss := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ss)
	if ss[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(ss[0].Value.Uint64()) / (1 << 20)
}

// childMaxRSSKiB is the largest peak RSS, in KiB, of the paper-op
// processes this process waited for. Paper ops run one at a time.
var childMaxRSSKiB int64

// recordChildRSS folds a finished child's peak RSS into childMaxRSSKiB.
func recordChildRSS(ps *os.ProcessState) {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		childMaxRSSKiB = max(childMaxRSSKiB, ru.Maxrss)
	}
}

// peakRSSMB is the peak resident set size, in MiB, of this process or
// of the largest paper-op child, whichever is larger. RUSAGE_CHILDREN is
// not used: it survives execve, so run.sh's go build would count in it.
func peakRSSMB() float64 {
	var self syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
		return 0
	}
	return float64(max(self.Maxrss, childMaxRSSKiB)) / 1024 // Linux reports KiB
}
