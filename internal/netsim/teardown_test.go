package netsim

import (
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// parkedReader is a handler that signals once it is about to block in
// Read, then reports what that Read returned.
type parkedReader struct {
	parked chan struct{}
	done   chan error
}

func newParkedReader() *parkedReader {
	return &parkedReader{parked: make(chan struct{}), done: make(chan error, 1)}
}

func (p *parkedReader) ServeConn(conn net.Conn, _ DialInfo) {
	defer conn.Close()
	close(p.parked)
	_, err := conn.Read(make([]byte, 1))
	p.done <- err
}

// waitUnblocked parks until the handler is in Read, closes the network,
// and requires the handler to return within a second.
func waitUnblocked(t *testing.T, n *Network, client net.Conn, p *parkedReader) {
	t.Helper()
	defer client.Close()
	select {
	case <-p.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never started")
	}
	time.Sleep(5 * time.Millisecond) // let it reach the blocking Read
	n.Close()
	select {
	case err := <-p.done:
		if err == nil {
			t.Fatal("parked Read returned no error after Network.Close")
		}
	case <-time.After(time.Second):
		t.Fatal("handler still parked in Read 1s after Network.Close")
	}
}

// TestNetworkCloseUnblocksDeliveredHandler covers Host.deliver: the
// handler is handed a server end the network owns.
func TestNetworkCloseUnblocksDeliveredHandler(t *testing.T) {
	n := newTestNet(t)
	srv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	p := newParkedReader()
	if _, err := srv.Serve(80, Public, p); err != nil {
		t.Fatal(err)
	}
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	waitUnblocked(t, n, conn, p)
}

// TestNetworkCloseUnblocksInterceptedHandler covers the interceptor
// branch of dial.
func TestNetworkCloseUnblocksInterceptedHandler(t *testing.T) {
	n := newTestNet(t)
	as, _ := n.AddAS(12486, "YEMENNET", "YE", mustPrefix(t, "82.114.160.0/19"))
	isp, _ := n.AddISP("YemenNet", as)
	inside, _ := n.AddHost(mustAddr(t, "82.114.160.5"), "", isp)
	outside, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	p := newParkedReader()
	isp.SetInterceptor(InterceptorFunc(func(DialInfo) Handler { return p }))
	conn, err := inside.Dial(context.Background(), outside.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	waitUnblocked(t, n, conn, p)
}

// TestNetworkCloseUnblocks5xxIntermediary covers the fault layer's
// synthetic 503 intermediary, which parks reading the request head.
func TestNetworkCloseUnblocks5xxIntermediary(t *testing.T) {
	baseline := runtime.NumGoroutine()
	n := newTestNet(t)
	srv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	n.SetFaultPlan(&FaultPlan{Seed: 5, Rules: []FaultRule{{Kind: FaultHTTP5xx, Probability: 1, Sticky: true}}})
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	time.Sleep(5 * time.Millisecond) // let the intermediary park
	n.Close()

	conn.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck // cannot fail
	if b, err := io.ReadAll(conn); err != nil || len(b) != 0 {
		t.Fatalf("client read after Network.Close = %q, %v; want clean EOF", b, err)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("%d goroutines 1s after Network.Close, baseline %d", g, baseline)
	}
}

// TestNetworkConnSetDropsClosedPairs keeps the live set bounded on a
// long-lived network: a pair leaves it as soon as either end closes.
func TestNetworkConnSetDropsClosedPairs(t *testing.T) {
	n := newTestNet(t)
	srv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	if _, err := srv.Serve(80, Public, HandlerFunc(func(c net.Conn, _ DialInfo) {
		defer c.Close()
		io.Copy(io.Discard, c) //nolint:errcheck // drain until the client closes
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		conn.Close()
	}
	n.connMu.Lock()
	live := len(n.conns)
	n.connMu.Unlock()
	if live != 0 {
		t.Fatalf("%d pairs still tracked after every client closed", live)
	}
}

// TestClosedConnHoldsNoTimer checks that closing a conn disarms every
// deadline timer on both of its halves, and that a deadline set after
// close arms none: an armed timer pins the pipe buffers until it fires.
func TestClosedConnHoldsNoTimer(t *testing.T) {
	a, b := newConnPair(simAddr{}, simAddr{})
	far := time.Now().Add(30 * time.Second)
	a.SetDeadline(far) //nolint:errcheck // cannot fail
	b.SetDeadline(far) //nolint:errcheck // cannot fail
	armed := func() int {
		n := 0
		for _, h := range []*halfPipe{a.rd, a.wr} {
			h.mu.Lock()
			for _, d := range []*deadline{&h.rdl, &h.wdl} {
				if d.timer != nil {
					n++
				}
			}
			h.mu.Unlock()
		}
		return n
	}
	if got := armed(); got != 4 {
		t.Fatalf("%d timers armed before close, want 4", got)
	}
	a.Close()
	if got := armed(); got != 0 {
		t.Fatalf("%d timers still armed after close", got)
	}
	a.SetDeadline(far) //nolint:errcheck // cannot fail
	b.SetDeadline(far) //nolint:errcheck // cannot fail
	if got := armed(); got != 0 {
		t.Fatalf("%d timers armed by deadlines set after close", got)
	}
}
