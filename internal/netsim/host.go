package netsim

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
)

// Host is a machine on the simulated Internet. A host belongs to at most
// one ISP; subscriber hosts inside a filtered ISP are the paper's
// "in-country vantage points", while ISP-less hosts model the researchers'
// lab server and commodity web hosting.
type Host struct {
	network *Network
	addr    netip.Addr
	name    string
	isp     *ISP

	// bypassIntercept exempts this host's own dials from its ISP's
	// interceptor. The filtering middlebox itself needs this so its onward
	// (proxied) connections are not re-intercepted in a loop.
	bypassIntercept bool

	mu        sync.Mutex
	listeners map[uint16]*listener
	nextPort  atomic.Uint32
}

// Addr returns the host's IP address.
func (h *Host) Addr() netip.Addr { return h.addr }

// Name returns the host's primary DNS name ("" if unnamed).
func (h *Host) Name() string { return h.name }

// ISP returns the host's ISP (nil if none).
func (h *Host) ISP() *ISP { return h.isp }

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.network }

// SetBypassIntercept marks the host's outbound connections as exempt from
// its own ISP's interceptor. Filtering middleboxes set this so forwarded
// traffic is not intercepted recursively.
func (h *Host) SetBypassIntercept(v bool) { h.bypassIntercept = v }

func ephemeralPort(h *Host) uint16 {
	return uint16(32768 + h.nextPort.Add(1)%28000)
}

// listener is a port bound on a host.
type listener struct {
	host       *Host
	port       uint16
	visibility Visibility
	handler    Handler // non-nil: direct dispatch, no accept loop (ServeHandler)
	mu         sync.Mutex
	closed     bool
	backlog    chan net.Conn
	done       chan struct{} // closed with the listener; unblocks queued dialers
}

// Listen binds port with Public visibility.
func (h *Host) Listen(port uint16) (net.Listener, error) {
	return h.ListenVisibility(port, Public)
}

// ListenVisibility binds port with the given visibility. ISPOnly listeners
// refuse connections originating outside the host's ISP, modelling a
// properly firewalled device (Table 5's first evasion tactic).
func (h *Host) ListenVisibility(port uint16, vis Visibility) (net.Listener, error) {
	l, err := h.bind(port, vis, nil)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// bind registers a listener; a non-nil handler makes it direct-dispatch.
func (h *Host) bind(port uint16, vis Visibility, handler Handler) (*listener, error) {
	if port == 0 {
		return nil, fmt.Errorf("netsim: cannot listen on port 0")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.listeners[port]; dup {
		return nil, fmt.Errorf("%w: %s:%d", ErrAddrInUse, h.addr, port)
	}
	l := &listener{host: h, port: port, visibility: vis, handler: handler, done: make(chan struct{})}
	if handler == nil {
		// Direct-dispatch listeners never queue: skipping the backlog
		// channel keeps an idle nation-scale listener to one map entry.
		l.backlog = make(chan net.Conn, 64)
	}
	h.listeners[port] = l
	return l, nil
}

// Serve binds port and serves each accepted connection with handler in its
// own goroutine. It returns the listener for later shutdown.
func (h *Host) Serve(port uint16, vis Visibility, handler Handler) (net.Listener, error) {
	l, err := h.ListenVisibility(port, vis)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			info := DialInfo{Src: AddrOf(c.RemoteAddr()), Dst: h.addr, Port: port}
			go handler.ServeConn(c, info)
		}
	}()
	return l, nil
}

// ServeHandler binds port and serves each inbound connection with
// handler, dispatched directly from the dialer's delivery path: no
// accept-loop goroutine exists while the port is idle. At nation
// scale (~100k hosts × a few ports each) the per-listener goroutine
// Serve spawns would cost gigabytes of stacks; ServeHandler listeners
// cost one map entry. A goroutine still runs per active connection,
// so handlers keep ordinary blocking semantics.
func (h *Host) ServeHandler(port uint16, vis Visibility, handler Handler) (net.Listener, error) {
	if handler == nil {
		return nil, fmt.Errorf("netsim: ServeHandler requires a handler")
	}
	l, err := h.bind(port, vis, handler)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// OpenPorts returns the ports with active listeners, sorted, regardless of
// visibility. Scanners must not use this shortcut; it exists for world
// assembly and debugging.
func (h *Host) OpenPorts() []uint16 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint16, 0, len(h.listeners))
	for p := range h.listeners {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (h *Host) closeAll() {
	h.mu.Lock()
	ls := make([]*listener, 0, len(h.listeners))
	for _, l := range h.listeners {
		ls = append(ls, l)
	}
	h.listeners = make(map[uint16]*listener)
	h.mu.Unlock()
	for _, l := range ls {
		l.close()
	}
}

// deliver routes an inbound connection attempt to the host's listener.
func (h *Host) deliver(src *Host, port uint16, info DialInfo) (net.Conn, error) {
	h.mu.Lock()
	l := h.listeners[port]
	h.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s:%d", ErrConnRefused, h.addr, port)
	}
	if l.visibility == ISPOnly && (src == nil || src.isp != h.isp || h.isp == nil) {
		// The device is invisible to the outside world: indistinguishable
		// from a closed port.
		return nil, fmt.Errorf("%w: %s:%d", ErrConnRefused, h.addr, port)
	}
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("%w: %s:%d", ErrConnRefused, h.addr, port)
	}
	client, server, err := h.network.connPair(
		simAddr{addr: info.Src, port: ephemeralPort(src)},
		simAddr{addr: h.addr, port: port},
	)
	if err != nil {
		return nil, err
	}
	// Direct dispatch: ServeHandler listeners have no accept loop; the
	// handler runs in a per-connection goroutine spawned here, exactly
	// where Serve's accept loop would have spawned it.
	if l.handler != nil {
		go l.handler.ServeConn(server, DialInfo{Src: info.Src, Dst: h.addr, Port: port})
		return client, nil
	}
	// A full accept queue parks the dialer until the listener drains it,
	// the way SYN retransmission rides out a transient backlog overflow.
	// Only a closed listener refuses outright.
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		server.Close()
		return nil, fmt.Errorf("%w: %s:%d", ErrConnRefused, h.addr, port)
	}
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	// Drain connections queued before close so no accepted dial is lost.
	select {
	case c := <-l.backlog:
		return c, nil
	default:
	}
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *listener) Close() error {
	l.close()
	l.host.mu.Lock()
	if l.host.listeners[l.port] == l {
		delete(l.host.listeners, l.port)
	}
	l.host.mu.Unlock()
	return nil
}

func (l *listener) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		// The backlog channel is never closed: dialers may be blocked
		// sending into it. Closing done unblocks them with ErrConnRefused
		// and wakes Accept once the queue drains.
		close(l.done)
	}
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return simAddr{addr: l.host.addr, port: l.port} }

// Dial opens a connection from this host to dst:port. The connection is
// subject to interception by the host's ISP when dst lies outside it.
func (h *Host) Dial(ctx context.Context, dst netip.Addr, port uint16) (net.Conn, error) {
	return h.network.dial(ctx, h, dst, port, "")
}

// DialHost resolves name and dials it, recording the name in the DialInfo
// seen by interceptors (analogous to a transparent proxy observing SNI).
// Resolution goes through the host's ISP resolver path, which a DNS
// poisoning mechanism may forge.
func (h *Host) DialHost(ctx context.Context, name string, port uint16) (net.Conn, error) {
	addr, err := h.network.resolveFor(h, name)
	if err != nil {
		return nil, err
	}
	return h.network.dial(ctx, h, addr, port, name)
}

// DialNamed dials dst:port while recording hostname in the DialInfo the
// ISP's middleboxes see — the shape of a probe that resolved the name
// elsewhere (e.g. an honest resolver) but still speaks to it by name.
func (h *Host) DialNamed(ctx context.Context, dst netip.Addr, port uint16, hostname string) (net.Conn, error) {
	return h.network.dial(ctx, h, dst, port, hostname)
}

// Dialer adapts the host to the httpwire.Dialer shape: a function from
// (ctx, host, port) to a connection, resolving names via simulated DNS.
func (h *Host) Dialer() func(ctx context.Context, hostname string, port uint16) (net.Conn, error) {
	return func(ctx context.Context, hostname string, port uint16) (net.Conn, error) {
		if addr, err := netip.ParseAddr(hostname); err == nil {
			return h.Dial(ctx, addr, port)
		}
		return h.DialHost(ctx, hostname, port)
	}
}
