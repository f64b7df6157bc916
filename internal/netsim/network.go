package netsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Transport abstracts how WEBDIS components reach each other. Endpoint
// names are opaque strings (the reproduction uses "host/query" for query
// servers, "host/web" for document hosts, and "user/c" for the
// client's Result Collector).
type Transport interface {
	// Listen registers the named endpoint and returns its listener.
	Listen(name string) (net.Listener, error)
	// Dial opens a connection from the named caller to the named endpoint.
	Dial(from, to string) (net.Conn, error)
}

// ErrRefused is returned by Dial when the destination endpoint is not
// listening or has been failed — the signal WEBDIS's passive termination
// relies on.
var ErrRefused = errors.New("netsim: connection refused")

// Options configure the simulated fabric.
type Options struct {
	// Latency is the one-way propagation delay applied to each message.
	Latency time.Duration
	// BytesPerSecond is the link bandwidth; zero means unlimited.
	BytesPerSecond int64
	// Faults is the seeded fault schedule; the zero value injects nothing.
	Faults FaultPlan
	// Observer, when set, receives one callback per transport-level
	// event: kind is "dial", "refused", "frame-dropped" or "severed".
	// It runs inline on the dial/send path, so it must be cheap and safe
	// for concurrent use. The tracing subsystem hooks its network
	// journal here.
	Observer func(kind, from, to string)
}

// Network is an in-process transport fabric with per-edge instrumentation.
// It implements Transport. The zero value is not usable; construct with
// New.
type Network struct {
	opts   Options
	faults *faultState

	mu        sync.Mutex
	listeners map[string]*simListener
	down      map[string]bool
	blocked   map[Edge]bool
	conns     map[*simConn]struct{}
	stats     *Stats
}

// New returns an empty fabric with the given options.
func New(opts Options) *Network {
	n := &Network{
		opts:      opts,
		faults:    newFaultState(opts.Faults),
		listeners: make(map[string]*simListener),
		down:      make(map[string]bool),
		blocked:   make(map[Edge]bool),
		conns:     make(map[*simConn]struct{}),
		stats:     NewStats(),
	}
	// Arm the crash schedule: dial refusal during each window comes from
	// faultState.refuses; the sever of established connections at the
	// window's start is an explicit event.
	for _, cw := range opts.Faults.Crashes {
		if cw.Until <= cw.From {
			continue
		}
		ep := cw.Endpoint
		time.AfterFunc(cw.From, func() { n.SeverEndpoint(ep) })
	}
	return n
}

// Stats returns the fabric's traffic collector.
func (n *Network) Stats() *Stats { return n.stats }

// Names returns how many endpoint names are currently listening.
func (n *Network) Names() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.listeners)
}

// SetDown marks an endpoint as unreachable (true) or reachable (false):
// subsequent Dials to it fail with ErrRefused. Used for failure injection.
func (n *Network) SetDown(name string, down bool) {
	n.mu.Lock()
	n.down[name] = down
	n.mu.Unlock()
}

// Block installs (or lifts) an asymmetric partition at runtime: dials from
// from to to are refused while blocked. Both names match by endpoint
// prefix, so Block("a.example", "b.example", true) cuts every a→b edge.
func (n *Network) Block(from, to string, blocked bool) {
	n.mu.Lock()
	if blocked {
		n.blocked[Edge{from, to}] = true
	} else {
		delete(n.blocked, Edge{from, to})
	}
	n.mu.Unlock()
}

// edgeBlocked reports whether a runtime Block covers from→to. Callers hold
// n.mu.
func (n *Network) edgeBlocked(from, to string) bool {
	for e := range n.blocked {
		if matches(e.From, from) && matches(e.To, to) {
			return true
		}
	}
	return false
}

// SeverEndpoint cuts every established connection touching the named
// endpoint (matching by prefix like DownWindow, so a site name covers
// all its endpoints). Both peers of each connection see the stream die,
// exactly as when the endpoint's process crashes mid-conversation. It
// returns the number of connections cut. Dials are unaffected; pair
// with SetDown (or use Kill) to also refuse new traffic.
func (n *Network) SeverEndpoint(name string) int {
	n.mu.Lock()
	var hit []*simConn
	for c := range n.conns {
		if matches(name, c.from) || matches(name, c.to) {
			hit = append(hit, c)
		}
	}
	n.mu.Unlock()
	cut := 0
	for _, c := range hit {
		// A connection is two tracked ends; count and observe it once, on
		// the end dialing into the crashed endpoint (or out of it, for its
		// own outbound dials).
		if matches(name, c.to) {
			cut++
			n.stats.AddCrashed(c.from, c.to)
			n.observe("crashed", c.from, c.to)
		}
		c.crash()
	}
	return cut
}

// Kill crashes the named endpoint at runtime: established connections
// touching it are severed and new dials to or from it are refused until
// Revive. This is the chaos tests' replica-kill switch. Unlike the
// scheduled CrashWindow it matches the exact endpoint name only (the
// SetDown semantics), so Kill("site/query@1") takes down one replica.
func (n *Network) Kill(name string) {
	n.SetDown(name, true)
	n.SeverEndpoint(name)
}

// Revive undoes a Kill: dials to the endpoint succeed again (its
// listener, which never went away, resumes accepting).
func (n *Network) Revive(name string) {
	n.SetDown(name, false)
}

// track registers a live connection end for SeverEndpoint.
func (n *Network) track(c *simConn) {
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
}

// untrack forgets a closed connection end.
func (n *Network) untrack(c *simConn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// Healthy reports whether a Dial from from to to would currently pass
// the fabric's administrative checks (SetDown, Block, scheduled
// down-windows and partitions). Connection pools use it to evict idle
// connections to peers that have since been failed, preserving the
// dial-time semantics of failure injection. It implements HealthChecker.
func (n *Network) Healthy(from, to string) bool {
	n.mu.Lock()
	bad := n.down[to] || n.down[from] || n.edgeBlocked(from, to)
	n.mu.Unlock()
	return !bad && !n.faults.refuses(from, to)
}

// Listen registers name on the fabric.
func (n *Network) Listen(name string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[name]; exists {
		return nil, fmt.Errorf("netsim: endpoint %q already listening", name)
	}
	l := &simListener{net: n, name: name}
	l.cond = sync.NewCond(&l.mu)
	n.listeners[name] = l
	return l, nil
}

// Dial connects from to to across the fabric. The returned connection
// applies the fabric's latency and bandwidth model and records traffic on
// the (from,to) and (to,from) edges.
func (n *Network) Dial(from, to string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[to]
	if n.down[to] || n.down[from] || n.edgeBlocked(from, to) {
		ok = false
	}
	n.mu.Unlock()
	if ok && n.faults.refuses(from, to) {
		ok = false
	}
	if !ok {
		n.stats.AddRefused(from, to)
		n.observe("refused", from, to)
		return nil, fmt.Errorf("%w: %s -> %s", ErrRefused, from, to)
	}
	cq := newQueue()
	sq := newQueue()
	client := &simConn{
		read: cq, write: sq,
		local: addr(from), remote: addr(to),
		net: n, from: from, to: to,
	}
	server := &simConn{
		read: sq, write: cq,
		local: addr(to), remote: addr(from),
		net: n, from: to, to: from,
	}
	// Hand the server end to the listener. The pending queue is unbounded
	// (a slow accepter delays dialers' reads, it never refuses them) and
	// enqueueing checks the closed flag under the listener lock, so a
	// concurrent Close can never strand a connection.
	if !l.enqueue(server) {
		n.stats.AddRefused(from, to)
		n.observe("refused", from, to)
		return nil, fmt.Errorf("%w: %s -> %s", ErrRefused, from, to)
	}
	n.track(client)
	n.track(server)
	n.stats.AddDial(from, to)
	n.observe("dial", from, to)
	return client, nil
}

// observe forwards one transport-level event to the configured Observer.
func (n *Network) observe(kind, from, to string) {
	if n.opts.Observer != nil {
		n.opts.Observer(kind, from, to)
	}
}

type simListener struct {
	net  *Network
	name string

	mu      sync.Mutex
	cond    *sync.Cond
	pending []net.Conn
	closed  bool
}

// enqueue hands a freshly dialed connection to the listener, reporting
// false when the listener is closed.
func (l *simListener) enqueue(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.pending = append(l.pending, c)
	l.cond.Signal()
	return true
}

func (l *simListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pending) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, net.ErrClosed
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

func (l *simListener) Close() error {
	l.net.mu.Lock()
	if l.net.listeners[l.name] == l {
		delete(l.net.listeners, l.name)
	}
	l.net.mu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// Connections delivered but never accepted would otherwise leave
	// their dialers blocked forever; close them so the peer sees EOF.
	pending := l.pending
	l.pending = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, c := range pending {
		c.Close()
	}
	return nil
}

func (l *simListener) Addr() net.Addr { return addr(l.name) }

type addr string

func (a addr) Network() string { return "netsim" }
func (a addr) String() string  { return string(a) }

// queue is one direction of a simulated duplex connection: a list of byte
// chunks, each becoming readable at its delivery time.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks []chunk
	buf    []byte // partially consumed head chunk
	closed bool
	// txEnd is when the sender's last transmission finishes; finite
	// bandwidth serializes transmissions.
	txEnd time.Time
}

type chunk struct {
	data  []byte
	ready time.Time
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(data []byte, opts Options) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	start := now
	if q.txEnd.After(start) {
		start = q.txEnd
	}
	if opts.BytesPerSecond > 0 {
		start = start.Add(time.Duration(int64(time.Second) * int64(len(data)) / opts.BytesPerSecond))
	}
	q.txEnd = start
	ready := start.Add(opts.Latency)
	cp := make([]byte, len(data))
	copy(cp, data)
	q.chunks = append(q.chunks, chunk{cp, ready})
	if ready.After(now) {
		time.AfterFunc(ready.Sub(now), q.cond.Broadcast)
	}
	q.cond.Broadcast()
}

func (q *queue) pop(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.buf) > 0 {
			n := copy(p, q.buf)
			q.buf = q.buf[n:]
			return n, nil
		}
		if len(q.chunks) > 0 {
			head := q.chunks[0]
			now := time.Now()
			if !head.ready.After(now) {
				q.buf = head.data
				q.chunks = q.chunks[1:]
				continue
			}
			// Not yet deliverable: the AfterFunc armed in push will wake us.
			q.cond.Wait()
			continue
		}
		if q.closed {
			return 0, errClosedPipe
		}
		q.cond.Wait()
	}
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// abort is close with crash semantics: chunks pushed but not yet
// delivered are discarded. Graceful close keeps them (a sender that
// closes after a successful write has still sent the bytes — the
// connection pool relies on that); a crashed process's socket buffers
// are simply gone.
func (q *queue) abort() {
	q.mu.Lock()
	q.closed = true
	q.chunks = nil
	q.buf = nil
	q.cond.Broadcast()
	q.mu.Unlock()
}

var errClosedPipe = errors.New("netsim: connection closed")

// simConn is one end of a simulated duplex connection.
type simConn struct {
	read, write   *queue
	local, remote addr
	net           *Network
	from, to      string
	closeOnce     sync.Once
}

func (c *simConn) Read(p []byte) (int, error) {
	n, err := c.read.pop(p)
	if err != nil {
		return n, io.EOF
	}
	return n, nil
}

func (c *simConn) Write(p []byte) (int, error) {
	c.write.mu.Lock()
	closed := c.write.closed
	c.write.mu.Unlock()
	if closed {
		return 0, errClosedPipe
	}
	switch c.net.faults.next() {
	case writeDrop:
		// The frame vanishes whole; the sender learns and may retry.
		c.net.stats.AddDropped(c.from, c.to)
		c.net.observe("frame-dropped", c.from, c.to)
		return 0, ErrDropped
	case writeSever:
		// Crash mid-message: a prefix travels, then the connection dies
		// in both directions. The receiver sees a short frame + EOF.
		cut := len(p) / 2
		if cut > 0 {
			c.net.stats.AddBytes(c.from, c.to, cut)
			c.write.push(p[:cut], c.net.opts)
		}
		c.net.stats.AddSevered(c.from, c.to)
		c.net.observe("severed", c.from, c.to)
		c.write.close()
		c.read.close()
		return 0, ErrSevered
	}
	c.net.stats.AddBytes(c.from, c.to, len(p))
	c.write.push(p, c.net.opts)
	return len(p), nil
}

// MarkMessage lets the wire layer attribute one framed message of the
// given kind to this connection's edge.
func (c *simConn) MarkMessage(kind string) {
	c.net.stats.AddMessage(c.from, c.to, kind)
}

// UnmarkMessage takes back a MarkMessage whose frame was not written.
func (c *simConn) UnmarkMessage(kind string) {
	c.net.stats.DropMessage(c.from, c.to, kind)
}

func (c *simConn) Close() error {
	c.closeOnce.Do(func() {
		c.write.close()
		c.read.close()
		c.net.untrack(c)
	})
	return nil
}

// crash closes the connection discarding in-flight data in both
// directions — the process holding the other structures is gone.
func (c *simConn) crash() {
	c.closeOnce.Do(func() {
		c.write.abort()
		c.read.abort()
		c.net.untrack(c)
	})
}

func (c *simConn) LocalAddr() net.Addr                { return c.local }
func (c *simConn) RemoteAddr() net.Addr               { return c.remote }
func (c *simConn) SetDeadline(t time.Time) error      { return nil }
func (c *simConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *simConn) SetWriteDeadline(t time.Time) error { return nil }

// MessageMarker is implemented by instrumented connections; the wire layer
// uses it to count framed messages per edge. It marks a frame before
// writing it and un-marks it if the write fails, so a frame is never
// visible to a reader before it is counted.
type MessageMarker interface {
	MarkMessage(kind string)
	UnmarkMessage(kind string)
}
