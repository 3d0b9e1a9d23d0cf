package netsim

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
)

// toyRealm owns 240.0.0.1 .. 240.0.0.N and materializes each host
// with a one-line banner derived from its address. It counts
// Materialize calls so tests can prove single-flight materialization.
type toyRealm struct {
	net   *Network
	n     int
	calls atomic.Int64
}

func (r *toyRealm) addr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{240, 0, 0, byte(i)})
}

func (r *toyRealm) Contains(addr netip.Addr) bool {
	a4 := addr.As4()
	return a4[0] == 240 && a4[1] == 0 && a4[2] == 0 && int(a4[3]) >= 1 && int(a4[3]) <= r.n
}

func (r *toyRealm) Addrs() []netip.Addr {
	out := make([]netip.Addr, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.addr(i))
	}
	return out
}

func (r *toyRealm) Resolve(name string) (netip.Addr, bool) {
	var i int
	if _, err := fmt.Sscanf(name, "lazy-%d.realm.test", &i); err != nil || i < 1 || i > r.n {
		return netip.Addr{}, false
	}
	return r.addr(i), true
}

func (r *toyRealm) ReverseLookup(addr netip.Addr) (string, bool) {
	if !r.Contains(addr) {
		return "", false
	}
	return fmt.Sprintf("lazy-%d.realm.test", addr.As4()[3]), true
}

func (r *toyRealm) Materialize(addr netip.Addr) error {
	r.calls.Add(1)
	name, _ := r.ReverseLookup(addr)
	h, err := r.net.AddHost(addr, name, nil)
	if err != nil {
		return err
	}
	banner := fmt.Sprintf("BANNER %s\n", addr)
	_, err = h.Serve(80, Public, HandlerFunc(func(conn net.Conn, _ DialInfo) {
		defer conn.Close()
		io.WriteString(conn, banner)
	}))
	return err
}

func newRealmNet(t *testing.T, n int) (*Network, *toyRealm, *Host) {
	t.Helper()
	nw := New(nil)
	r := &toyRealm{net: nw, n: n}
	nw.SetRealm(r)
	src, err := nw.AddHost(netip.MustParseAddr("198.51.100.1"), "probe.test", nil)
	if err != nil {
		t.Fatal(err)
	}
	return nw, r, src
}

func readBanner(t *testing.T, c net.Conn) string {
	t.Helper()
	defer c.Close()
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("read banner: %v", err)
	}
	return line
}

func TestRealmMaterializeOnDial(t *testing.T) {
	nw, r, src := newRealmNet(t, 4)
	defer nw.Close()

	dst := r.addr(3)
	if _, ok := nw.Host(dst); ok {
		t.Fatal("host materialized before first dial")
	}
	c, err := src.Dial(context.Background(), dst, 80)
	if err != nil {
		t.Fatalf("dial cold realm host: %v", err)
	}
	if got, want := readBanner(t, c), "BANNER 240.0.0.3\n"; got != want {
		t.Fatalf("banner = %q, want %q", got, want)
	}
	if _, ok := nw.Host(dst); !ok {
		t.Fatal("host not registered after dial")
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("Materialize calls = %d, want 1", got)
	}
	// Second dial must not re-materialize.
	c, err = src.Dial(context.Background(), dst, 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("Materialize calls after warm dial = %d, want 1", got)
	}
}

func TestRealmConcurrentDialSingleFlight(t *testing.T) {
	nw, r, src := newRealmNet(t, 1)
	defer nw.Close()

	const dialers = 16
	var wg sync.WaitGroup
	errs := make(chan error, dialers)
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := src.Dial(context.Background(), r.addr(1), 80)
			if err != nil {
				errs <- err
				return
			}
			c.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent dial: %v", err)
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("Materialize calls = %d, want exactly 1 under %d concurrent dialers", got, dialers)
	}
}

// siblingRealm materializes its whole "ISP" (every address) in one
// call, as the world's scale realm does, and parks between registering
// the hosts and mounting their listeners until the test resumes it.
type siblingRealm struct {
	toyRealm
	parked chan struct{} // closed once every host is registered
	resume chan struct{} // listeners mount once this is closed
	asked  chan struct{} // closed when a dial asks about the sibling while parked

	waiting atomic.Bool
	askOnce sync.Once
	sibling netip.Addr
}

func (r *siblingRealm) Contains(addr netip.Addr) bool {
	if addr == r.sibling && r.waiting.Load() {
		r.askOnce.Do(func() { close(r.asked) })
	}
	return r.toyRealm.Contains(addr)
}

func (r *siblingRealm) Materialize(netip.Addr) error {
	r.calls.Add(1)
	var hosts []*Host
	for i := 1; i <= r.n; i++ {
		name, _ := r.ReverseLookup(r.addr(i))
		h, err := r.net.AddHost(r.addr(i), name, nil)
		if err != nil {
			return err
		}
		hosts = append(hosts, h)
	}
	r.waiting.Store(true)
	close(r.parked)
	<-r.resume
	r.waiting.Store(false)
	for _, h := range hosts {
		banner := fmt.Sprintf("BANNER %s\n", h.Addr())
		if _, err := h.Serve(80, Public, HandlerFunc(func(conn net.Conn, _ DialInfo) {
			defer conn.Close()
			io.WriteString(conn, banner)
		})); err != nil {
			return err
		}
	}
	return nil
}

// TestRealmSiblingDialWaitsForMaterialization dials a sibling address
// while the materialization that registered it is still mounting
// listeners: the dial must wait for the build to finish, not reach the
// half-built host and be refused.
func TestRealmSiblingDialWaitsForMaterialization(t *testing.T) {
	nw := New(nil)
	defer nw.Close()
	r := &siblingRealm{
		toyRealm: toyRealm{net: nw, n: 2},
		parked:   make(chan struct{}),
		resume:   make(chan struct{}),
		asked:    make(chan struct{}),
	}
	r.sibling = r.addr(2)
	nw.SetRealm(r)
	src, err := nw.AddHost(netip.MustParseAddr("198.51.100.1"), "probe.test", nil)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		banner string
		err    error
	}
	dial := func(addr netip.Addr, out chan<- result) {
		c, err := src.Dial(context.Background(), addr, 80)
		if err != nil {
			out <- result{err: err}
			return
		}
		defer c.Close()
		line, err := bufio.NewReader(c).ReadString('\n')
		out <- result{line, err}
	}
	first, sibling := make(chan result, 1), make(chan result, 1)
	go dial(r.addr(1), first)
	<-r.parked
	go dial(r.sibling, sibling)

	// The sibling dial either joins the materialization (asking the
	// realm about its address) or returns early with what it found.
	var early *result
	select {
	case <-r.asked:
	case res := <-sibling:
		early = &res
	}
	close(r.resume)
	if early != nil {
		t.Fatalf("sibling dial returned (%q, %v) while its host was half-built", early.banner, early.err)
	}
	for i, ch := range []chan result{first, sibling} {
		res := <-ch
		if want := fmt.Sprintf("BANNER %s\n", r.addr(i+1)); res.err != nil || res.banner != want {
			t.Errorf("dial %s = (%q, %v), want %q", r.addr(i+1), res.banner, res.err, want)
		}
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("Materialize calls = %d, want 1", got)
	}
}

func TestRealmResolveWithoutMaterializing(t *testing.T) {
	nw, r, _ := newRealmNet(t, 4)
	defer nw.Close()

	addr, err := nw.Resolve("lazy-2.realm.test")
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if addr != r.addr(2) {
		t.Fatalf("Resolve = %s, want %s", addr, r.addr(2))
	}
	name, ok := nw.ReverseLookup(r.addr(2))
	if !ok || name != "lazy-2.realm.test" {
		t.Fatalf("ReverseLookup = %q,%v", name, ok)
	}
	if got := r.calls.Load(); got != 0 {
		t.Fatalf("DNS lookups materialized %d hosts; want 0", got)
	}
	if _, err := nw.Resolve("nonexistent.realm.test"); err == nil {
		t.Fatal("Resolve of unknown realm name succeeded")
	}
}

func TestRealmAddrsMergedAndSorted(t *testing.T) {
	nw, r, src := newRealmNet(t, 3)
	defer nw.Close()

	addrs := nw.Addrs()
	want := []netip.Addr{
		netip.MustParseAddr("198.51.100.1"),
		r.addr(1), r.addr(2), r.addr(3),
	}
	if len(addrs) != len(want) {
		t.Fatalf("Addrs = %v, want %v", addrs, want)
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("Addrs[%d] = %s, want %s", i, addrs[i], want[i])
		}
	}
	// Materializing one host must not duplicate its address.
	c, err := src.Dial(context.Background(), r.addr(2), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := nw.Addrs(); len(got) != len(want) {
		t.Fatalf("Addrs after materialization has %d entries, want %d: %v", len(got), len(want), got)
	}
}

func TestRealmRemoveHostStaysRemoved(t *testing.T) {
	nw, r, src := newRealmNet(t, 2)
	defer nw.Close()

	dst := r.addr(1)
	c, err := src.Dial(context.Background(), dst, 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	nw.RemoveHost(dst)

	if _, err := src.Dial(context.Background(), dst, 80); err == nil {
		t.Fatal("dial to removed realm host succeeded")
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("removed host re-materialized: %d calls", got)
	}
	// The removed address must also vanish from scan sweeps.
	for _, a := range nw.Addrs() {
		if a == dst {
			t.Fatalf("Addrs still lists removed realm host %s", a)
		}
	}
}

func TestServeDirectDispatch(t *testing.T) {
	nw := New(nil)
	defer nw.Close()
	srv, err := nw.AddHost(netip.MustParseAddr("203.0.113.1"), "direct.test", nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := nw.AddHost(netip.MustParseAddr("203.0.113.2"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var gotInfo DialInfo
	var mu sync.Mutex
	l, err := srv.Serve(8080, Public, HandlerFunc(func(conn net.Conn, info DialInfo) {
		mu.Lock()
		gotInfo = info
		mu.Unlock()
		io.WriteString(conn, "direct\n")
		conn.Close()
	}))
	if err != nil {
		t.Fatal(err)
	}
	c, err := src.Dial(context.Background(), srv.Addr(), 8080)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBanner(t, c); got != "direct\n" {
		t.Fatalf("banner = %q", got)
	}
	mu.Lock()
	info := gotInfo
	mu.Unlock()
	if info.Src != src.Addr() || info.Dst != srv.Addr() || info.Port != 8080 {
		t.Fatalf("handler DialInfo = %+v", info)
	}
	l.Close()
	if _, err := src.Dial(context.Background(), srv.Addr(), 8080); err == nil {
		t.Fatal("dial after Close succeeded")
	}
}
