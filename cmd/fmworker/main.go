// Command fmworker is the scan-out worker: it joins an fmserve
// coordinator (-role coordinator|both), leases probe shards over HTTP,
// executes them against its own deterministic world replica, and ships
// document fragments back. Because every worker rebuilds the same world
// from the same seed, a clustered run merges to the byte-identical
// single-process report.
//
// Usage:
//
//	fmworker -coordinator http://host:8080 [-id worker-1] [-token SECRET]
//	         [-workers N] [-poll 100ms] [-heartbeat 2s] [-run-for 0]
//	         [-drain 30s]
//
// The worker exits gracefully on SIGINT/SIGTERM: it finishes (or hands
// back) its current leases so the coordinator reassigns them without
// waiting for lease expiry, then returns. -run-for bounds the lifetime
// without a signal (useful for scripted fan-out and tests).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"filtermap"

	"filtermap/internal/version"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL (an fmserve running -role coordinator|both); required")
	id := flag.String("id", "", "worker id on the ring (default worker-<pid>)")
	token := flag.String("token", "", "shared cluster token (required when the coordinator runs -cluster-token)")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = engine default)")
	poll := flag.Duration("poll", 0, "longest one lease call waits for work; the coordinator answers as soon as a shard is pending (0 = 100ms)")
	heartbeat := flag.Duration("heartbeat", 0, "lease-renewal interval; keep well under the coordinator's lease TTL (0 = 2s)")
	runFor := flag.Duration("run-for", 0, "drain and exit after this long (0 = run until SIGINT/SIGTERM)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	checkVersion := version.Flag(flag.CommandLine, "fmworker")
	flag.Parse()
	checkVersion()

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "fmworker: -coordinator is required")
		flag.Usage()
		os.Exit(2)
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}

	var engOpts []filtermap.Option
	if *workers > 0 {
		engOpts = append(engOpts, filtermap.WithWorkers(*workers))
	}
	w := filtermap.NewClusterWorkerWithToken(*id, *coordinator, *token, engOpts...)
	w.Poll = *poll
	w.HeartbeatEvery = *heartbeat

	// The signal context only triggers the drain; Run gets its own
	// cancel so a started shard finishes inside the drain budget rather
	// than being cut off mid-probe.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()

	fmt.Printf("fmworker %s leasing from %s\n", *id, *coordinator)
	done := make(chan error, 1)
	go func() { done <- w.Run(runCtx) }()

	var deadline <-chan time.Time
	if *runFor > 0 {
		deadline = time.After(*runFor)
	}
	select {
	case <-done:
		fmt.Printf("fmworker %s stopped\n", *id)
		return
	case <-sigCtx.Done():
	case <-deadline:
	}
	stop() // a second signal now kills outright

	fmt.Printf("fmworker %s draining (budget %s)\n", *id, *drain)
	w.Drain()
	select {
	case <-done:
	case <-time.After(*drain):
		fmt.Printf("fmworker %s drain budget exceeded; aborting lease\n", *id)
		cancel()
		<-done
	}
	fmt.Printf("fmworker %s stopped\n", *id)
}
