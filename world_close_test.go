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
