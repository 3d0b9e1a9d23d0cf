package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// parkedLease runs one lease call in the background and reports its
// grants and the moment it returned.
type parkedLease struct {
	grants chan []ShardLease
	at     chan time.Time
}

func parkLease(ctx context.Context, c *Coordinator, worker string, wait time.Duration) *parkedLease {
	p := &parkedLease{grants: make(chan []ShardLease, 1), at: make(chan time.Time, 1)}
	go func() {
		g := c.Lease(ctx, LeaseRequest{Worker: worker, Max: 1, WaitMS: wait.Milliseconds()})
		p.at <- time.Now()
		p.grants <- g
	}()
	return p
}

// requireParked fails if the lease has already answered: the wake
// event under test must be what ends the wait.
func (p *parkedLease) requireParked(t *testing.T) {
	t.Helper()
	select {
	case <-p.at:
		t.Fatal("lease answered before any work was pending")
	case <-time.After(30 * time.Millisecond):
	}
}

// requireWoken requires the lease to return a grant within 50ms of
// the wake event at woke.
func (p *parkedLease) requireWoken(t *testing.T, woke time.Time) []ShardLease {
	t.Helper()
	select {
	case at := <-p.at:
		if d := at.Sub(woke); d > 50*time.Millisecond {
			t.Fatalf("parked lease returned %v after the wake event, want <50ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease never woke")
	}
	g := <-p.grants
	if len(g) != 1 {
		t.Fatalf("woken lease granted %d shards, want 1", len(g))
	}
	return g
}

// leaseAll takes every pending shard for worker, leaving nothing
// pending.
func leaseAll(t *testing.T, c *Coordinator, worker string) []ShardLease {
	t.Helper()
	leases := c.Lease(context.Background(), LeaseRequest{Worker: worker, Max: 1000})
	if len(leases) == 0 {
		t.Fatal("no shards to lease")
	}
	return leases
}

func TestLeaseWakesOnJobEnqueue(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: time.Minute})
	p := parkLease(context.Background(), c, "w", 10*time.Second)
	p.requireParked(t)
	woke := time.Now()
	startJob(t, c)
	p.requireWoken(t, woke)
}

func TestLeaseWakesOnFailedResultRequeue(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: time.Minute, MaxAttempts: 5})
	startJob(t, c)
	held := leaseAll(t, c, "a")
	p := parkLease(context.Background(), c, "b", 10*time.Second)
	p.requireParked(t)
	woke := time.Now()
	c.Result("a", held[0].Ref, nil, "boom")
	if g := p.requireWoken(t, woke); g[0].Ref.Shard != held[0].Ref.Shard {
		t.Fatalf("woken lease got shard %d, want the requeued shard %d", g[0].Ref.Shard, held[0].Ref.Shard)
	}
}

func TestLeaseWakesOnRelease(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: time.Minute})
	startJob(t, c)
	held := leaseAll(t, c, "a")
	p := parkLease(context.Background(), c, "b", 10*time.Second)
	p.requireParked(t)
	woke := time.Now()
	c.Release("a", []LeaseRef{held[0].Ref})
	if g := p.requireWoken(t, woke); g[0].Ref.Shard != held[0].Ref.Shard {
		t.Fatalf("woken lease got shard %d, want the released shard %d", g[0].Ref.Shard, held[0].Ref.Shard)
	}
}

func TestLeaseWaitEndsEmptyAtBound(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: time.Minute})
	start := time.Now()
	g := c.Lease(context.Background(), LeaseRequest{Worker: "w", WaitMS: 100})
	elapsed := time.Since(start)
	if len(g) != 0 {
		t.Fatalf("granted %d shards with nothing pending", len(g))
	}
	if elapsed < 100*time.Millisecond || elapsed > time.Second {
		t.Fatalf("empty lease returned after %v, want the 100ms wait", elapsed)
	}
}

func TestLeaseWaitClampedToLeaseTTL(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: 100 * time.Millisecond})
	start := time.Now()
	c.Lease(context.Background(), LeaseRequest{Worker: "w", WaitMS: 60_000})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("a 60s wait held the lease %v, want the 100ms LeaseTTL clamp", elapsed)
	}
}

func TestLeaseWaitEndsOnCancel(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	p := parkLease(ctx, c, "w", 10*time.Second)
	p.requireParked(t)
	canceled := time.Now()
	cancel()
	select {
	case at := <-p.at:
		if d := at.Sub(canceled); d > 50*time.Millisecond {
			t.Fatalf("canceled lease returned %v after cancel, want <50ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled lease never returned")
	}
	if g := <-p.grants; len(g) != 0 {
		t.Fatalf("canceled lease granted %d shards", len(g))
	}
}

// emptyTransport answers every lease at once with nothing, like a
// coordinator that predates wait_ms.
type emptyTransport struct {
	leases atomic.Int64
}

func (t *emptyTransport) Lease(context.Context, LeaseRequest) (LeaseResponse, error) {
	t.leases.Add(1)
	return LeaseResponse{}, nil
}

func (t *emptyTransport) Result(context.Context, ResultRequest) (ResultResponse, error) {
	return ResultResponse{}, nil
}

func (t *emptyTransport) Heartbeat(context.Context, HeartbeatRequest) (HeartbeatResponse, error) {
	return HeartbeatResponse{}, nil
}

func (t *emptyTransport) Release(context.Context, ReleaseRequest) error { return nil }

// TestWorkerLeaseNoSpinOnEarlyEmpty pins the worker's pacing against a
// coordinator that answers before the wait: one lease call per Poll,
// not a busy loop.
func TestWorkerLeaseNoSpinOnEarlyEmpty(t *testing.T) {
	tr := &emptyTransport{}
	w := NewWorker("w", tr)
	w.Poll = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	w.Run(ctx) //nolint:errcheck // exits on the timeout
	if n := tr.leases.Load(); n > 12 || n < 5 {
		t.Fatalf("worker made %d lease calls in 1s at Poll=100ms, want ~10", n)
	}
}
