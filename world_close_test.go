package filtermap_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"filtermap"
)

// TestWorldCloseReleasesGoroutines pins bounded state across world
// builds: keep-alive product handlers park in Read on connections the
// measurement pools hold open, and each parked goroutine pins its
// world. Closing the world must end every one of them, not leave them
// to their 30s read deadlines.
func TestWorldCloseReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	w, err := filtermap.NewWorld(filtermap.Options{Mechanisms: &filtermap.MechanismOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w.Clock.Advance(8 * time.Hour)
	if _, err := w.RunCharacterization(ctx); err != nil {
		t.Fatalf("RunCharacterization: %v", err)
	}
	if _, err := w.RunDiscovery(ctx, filtermap.DiscoveryOptions{}); err != nil {
		t.Fatalf("RunDiscovery: %v", err)
	}
	if _, err := w.RunMechanismSurvey(ctx); err != nil {
		t.Fatalf("RunMechanismSurvey: %v", err)
	}
	w.Close()

	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines 1s after World.Close, baseline %d; first stacks:\n%s", n, baseline, buf)
	}
}

// TestIdleWorldParksNoListenerGoroutines pins netsim's one listener
// model: a simulated server is dispatched straight from the dial, so a
// built world with nothing in flight runs no goroutine per listener —
// not for product consoles, origin sites, whois, sinkholes or the
// mechanism resolvers.
func TestIdleWorldParksNoListenerGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts filtermap.Options
	}{
		{"default", filtermap.Options{}},
		{"mechanisms", filtermap.Options{Mechanisms: &filtermap.MechanismOptions{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			w, err := filtermap.NewWorld(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			time.Sleep(20 * time.Millisecond) // let any listener goroutine park
			if extra := runtime.NumGoroutine() - baseline; extra > 10 {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("idle world runs %d goroutines above baseline, want <= 10; stacks:\n%s", extra, buf)
			}
		})
	}
}
