package netsim

import (
	"fmt"
	"net"
	"strings"
	"sync"
)

// TCPTransport implements Transport over real TCP sockets, mapping the
// engine's symbolic endpoint names to network addresses. It is what the
// webdisd/webdis commands use to run a genuine multi-process deployment,
// like the original Java system's site daemons listening on a common
// pre-specified port. Traffic is counted per edge just like the simulated
// fabric (attribution of inbound traffic uses the symbolic name announced
// by the dialer via the wire layer, so byte counts for TCP cover the
// dialer side only).
type TCPTransport struct {
	mu    sync.Mutex
	addrs map[string]string // endpoint name -> host:port
	down  map[string]bool
	stats *Stats
}

// NewTCP returns an empty TCP transport.
func NewTCP() *TCPTransport {
	return &TCPTransport{addrs: make(map[string]string), down: make(map[string]bool), stats: NewStats()}
}

// SetDown marks an endpoint as unreachable (true) or reachable (false),
// mirroring Network.SetDown: dials to or from a down endpoint fail with
// ErrRefused. The listener itself stays bound — this models a process
// that is unreachable, not deregistered — so parity with the in-process
// fabric holds for failure-injection tests over TCP.
func (t *TCPTransport) SetDown(name string, down bool) {
	t.mu.Lock()
	t.down[name] = down
	t.mu.Unlock()
}

// Stats returns the transport's traffic collector.
func (t *TCPTransport) Stats() *Stats { return t.stats }

// Healthy reports whether a Dial from from to to would currently pass
// the transport's down-marks, mirroring Network.Healthy for connection
// pools. It implements HealthChecker.
func (t *TCPTransport) Healthy(from, to string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.down[from] && !t.down[to]
}

// Register maps an endpoint name to a TCP address, so that other processes
// can Dial it by name.
func (t *TCPTransport) Register(name, hostport string) {
	t.mu.Lock()
	t.addrs[name] = hostport
	t.mu.Unlock()
}

// Names returns how many endpoint names are registered — a long-lived
// process should see it settle once its listeners are up.
func (t *TCPTransport) Names() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.addrs)
}

// Resolve returns the registered address of name.
func (t *TCPTransport) Resolve(name string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.addrs[name]
	return a, ok
}

// splitTCPName recognizes self-addressed endpoint names of the form
// "tcp://host:port/suffix", which resolve without registration. The
// WEBDIS client names its result collector this way so that query servers
// in other processes can dial it directly — the paper's "IP address and
// port number sent along with the web-query".
func splitTCPName(name string) (string, bool) {
	const prefix = "tcp://"
	if !strings.HasPrefix(name, prefix) {
		return "", false
	}
	rest := name[len(prefix):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// Listen binds the named endpoint. Self-addressed tcp:// names bind their
// embedded address; registered names bind their registered address; any
// other name gets an ephemeral local port, which is then registered.
func (t *TCPTransport) Listen(name string) (net.Listener, error) {
	t.mu.Lock()
	hostport, ok := t.addrs[name]
	t.mu.Unlock()
	if !ok {
		if embedded, self := splitTCPName(name); self {
			hostport = embedded
		} else {
			hostport = "127.0.0.1:0"
		}
	}
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %s: %w", name, err)
	}
	t.Register(name, ln.Addr().String())
	return ln, nil
}

// Dial connects to the named endpoint.
func (t *TCPTransport) Dial(from, to string) (net.Conn, error) {
	t.mu.Lock()
	refused := t.down[from] || t.down[to]
	t.mu.Unlock()
	if refused {
		t.stats.AddRefused(from, to)
		return nil, fmt.Errorf("%w: %s -> %s (down)", ErrRefused, from, to)
	}
	addr, ok := t.Resolve(to)
	if !ok {
		if embedded, self := splitTCPName(to); self {
			addr = embedded
		} else {
			t.stats.AddRefused(from, to)
			return nil, fmt.Errorf("%w: %s -> %s (unregistered)", ErrRefused, from, to)
		}
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.stats.AddRefused(from, to)
		return nil, fmt.Errorf("%w: %s -> %s: %v", ErrRefused, from, to, err)
	}
	t.stats.AddDial(from, to)
	return &tcpConn{Conn: c, stats: t.stats, from: from, to: to}, nil
}

type tcpConn struct {
	net.Conn
	stats    *Stats
	from, to string
}

func (c *tcpConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.stats.AddBytes(c.from, c.to, n)
	return n, err
}

func (c *tcpConn) MarkMessage(kind string) {
	c.stats.AddMessage(c.from, c.to, kind)
}

func (c *tcpConn) UnmarkMessage(kind string) {
	c.stats.DropMessage(c.from, c.to, kind)
}
