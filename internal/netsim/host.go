package netsim

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net"
	"net/netip"
	"slices"
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

// listener is a port bound on a host. It is open exactly while it is in
// its host's listeners map; nothing runs on its behalf while idle.
type listener struct {
	host       *Host
	port       uint16
	visibility Visibility
	handler    Handler
}

// Serve binds port with the given visibility and serves each inbound
// connection with handler. Dispatch is direct from the dialer's delivery
// path: a goroutine runs per delivered connection, so handlers keep
// ordinary blocking semantics, but none exists while the port is idle —
// an idle listener costs one map entry, which is what lets a nation-scale
// world hold ~100k hosts. ISPOnly listeners refuse connections
// originating outside the host's ISP, modelling a properly firewalled
// device (Table 5's first evasion tactic). Close unbinds the port.
func (h *Host) Serve(port uint16, vis Visibility, handler Handler) (io.Closer, error) {
	if port == 0 {
		return nil, fmt.Errorf("netsim: cannot listen on port 0")
	}
	if handler == nil {
		return nil, fmt.Errorf("netsim: Serve requires a handler")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.listeners[port]; dup {
		return nil, fmt.Errorf("%w: %s:%d", ErrAddrInUse, h.addr, port)
	}
	l := &listener{host: h, port: port, visibility: vis, handler: handler}
	h.listeners[port] = l
	return l, nil
}

// OpenPorts returns the ports with active listeners, sorted, regardless of
// visibility. Scanners must not use this shortcut; it exists for world
// assembly and debugging.
func (h *Host) OpenPorts() []uint16 {
	h.mu.Lock()
	out := slices.Collect(maps.Keys(h.listeners))
	h.mu.Unlock()
	slices.Sort(out)
	return out
}

func (h *Host) closeAll() {
	h.mu.Lock()
	clear(h.listeners)
	h.mu.Unlock()
}

// deliver routes an inbound connection attempt to the host's listener and
// spawns its handler on the server end.
func (h *Host) deliver(src *Host, port uint16, info DialInfo) (net.Conn, error) {
	h.mu.Lock()
	l := h.listeners[port]
	h.mu.Unlock()
	// An ISPOnly device is invisible to the outside world: indistinguishable
	// from a closed port.
	if l == nil || (l.visibility == ISPOnly && (src.isp != h.isp || h.isp == nil)) {
		return nil, fmt.Errorf("%w: %s:%d", ErrConnRefused, h.addr, port)
	}
	client, server, err := h.network.connPair(
		simAddr{addr: info.Src, port: ephemeralPort(src)},
		simAddr{addr: h.addr, port: port},
	)
	if err != nil {
		return nil, err
	}
	go l.handler.ServeConn(server, DialInfo{Src: info.Src, Dst: h.addr, Port: port})
	return client, nil
}

// Close unbinds the listener's port; later dials are refused.
func (l *listener) Close() error {
	l.host.mu.Lock()
	if l.host.listeners[l.port] == l {
		delete(l.host.listeners, l.port)
	}
	l.host.mu.Unlock()
	return nil
}

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
