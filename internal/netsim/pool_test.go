package netsim

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// acceptAll starts a listener that accepts (and holds open) every
// incoming connection, returning a stop function.
func acceptAll(t *testing.T, tr Transport, name string) func() {
	t.Helper()
	ln, err := tr.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	return func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

func TestPoolReuse(t *testing.T) {
	n := New(Options{})
	defer acceptAll(t, n, "server")()

	p := NewPool(n, "client", PoolOptions{})
	c1, reused, err := p.Get("server")
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("first Get reported reuse")
	}
	p.Put("server", c1)
	if got := p.IdleCount(); got != 1 {
		t.Fatalf("IdleCount = %d, want 1", got)
	}
	c2, reused, err := p.Get("server")
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Fatal("second Get did not reuse")
	}
	if c2 != c1 {
		t.Fatal("reuse returned a different connection")
	}
	if got := p.IdleCount(); got != 0 {
		t.Fatalf("IdleCount after take = %d, want 0", got)
	}
	c2.Close()
}

func TestPoolIdleTTL(t *testing.T) {
	n := New(Options{})
	defer acceptAll(t, n, "server")()

	p := NewPool(n, "client", PoolOptions{IdleTTL: time.Millisecond})
	c, _, err := p.Get("server")
	if err != nil {
		t.Fatal(err)
	}
	p.Put("server", c)
	time.Sleep(5 * time.Millisecond)
	c2, reused, err := p.Get("server")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if reused {
		t.Fatal("expired idle connection was reused")
	}
	if got := p.IdleCount(); got != 0 {
		t.Fatalf("IdleCount = %d, want 0 after TTL eviction", got)
	}
}

// TestPoolHealthCheck: a peer going down must evict its idle connections
// so the caller's dial observes the refusal — pooling must not let sends
// tunnel through a down-window.
func TestPoolHealthCheck(t *testing.T) {
	n := New(Options{})
	defer acceptAll(t, n, "server")()

	p := NewPool(n, "client", PoolOptions{})
	c, _, err := p.Get("server")
	if err != nil {
		t.Fatal(err)
	}
	p.Put("server", c)

	n.SetDown("server", true)
	if _, reused, err := p.Get("server"); err == nil || reused {
		t.Fatalf("Get to down peer: reused=%v err=%v, want dial refusal", reused, err)
	}
	if got := p.IdleCount(); got != 0 {
		t.Fatalf("IdleCount = %d, want 0 after health eviction", got)
	}

	n.SetDown("server", false)
	c2, reused, err := p.Get("server")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if reused {
		t.Fatal("reuse reported after eviction emptied the pool")
	}
}

func TestPoolPerPeerCap(t *testing.T) {
	n := New(Options{})
	defer acceptAll(t, n, "server")()

	p := NewPool(n, "client", PoolOptions{MaxIdlePerPeer: 2})
	var conns []net.Conn
	for i := 0; i < 3; i++ {
		c, _, err := p.Get("server")
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		p.Put("server", c)
	}
	if got := p.IdleCount(); got != 2 {
		t.Fatalf("IdleCount = %d, want per-peer cap 2", got)
	}
}

// TestPoolGlobalEviction: at the global cap the oldest idle connection
// anywhere is evicted, so a newly idle connection always finds room.
func TestPoolGlobalEviction(t *testing.T) {
	n := New(Options{})
	defer acceptAll(t, n, "a")()
	defer acceptAll(t, n, "b")()
	defer acceptAll(t, n, "c")()

	p := NewPool(n, "client", PoolOptions{MaxIdle: 2})
	for _, peer := range []string{"a", "b", "c"} {
		c, _, err := p.Get(peer)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(peer, c)
		time.Sleep(time.Millisecond) // distinct idle timestamps
	}
	if got := p.IdleCount(); got != 2 {
		t.Fatalf("IdleCount = %d, want global cap 2", got)
	}
	// "a" went idle first and must have been the eviction victim.
	ca, reused, err := p.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	ca.Close()
	if reused {
		t.Fatal("oldest idle connection survived global eviction")
	}
	cc, reused, err := p.Get("c")
	if err != nil || !reused {
		t.Fatalf("newest idle connection gone: reused=%v err=%v", reused, err)
	}
	cc.Close()
}

func TestPoolClose(t *testing.T) {
	n := New(Options{})
	defer acceptAll(t, n, "server")()

	p := NewPool(n, "client", PoolOptions{})
	c, _, err := p.Get("server")
	if err != nil {
		t.Fatal(err)
	}
	p.Put("server", c)
	p.Close()
	if got := p.IdleCount(); got != 0 {
		t.Fatalf("IdleCount = %d after Close", got)
	}
	// Get degrades to plain dialing on a closed pool.
	c2, reused, err := p.Get("server")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if reused {
		t.Fatal("closed pool reused a connection")
	}
	p.Put("server", c2) // must close, not retain
	if got := p.IdleCount(); got != 0 {
		t.Fatalf("IdleCount = %d, want 0 on closed pool", got)
	}
}

// unhealthyConn wraps a connection with a failing ConnHealth answer —
// the shape of a wire session poisoned by a mid-frame error.
type unhealthyConn struct {
	net.Conn
	closed bool
}

func (u *unhealthyConn) Healthy() bool { return false }
func (u *unhealthyConn) Close() error  { u.closed = true; return u.Conn.Close() }

// TestPoolPutEvictsUnhealthySession: a connection whose session reports
// unhealthy (e.g. poisoned by a torn frame) must be closed on Put, never
// re-pooled for another sender.
func TestPoolPutEvictsUnhealthySession(t *testing.T) {
	n := New(Options{})
	defer acceptAll(t, n, "server")()

	p := NewPool(n, "client", PoolOptions{})
	raw, err := n.Dial("client", "server")
	if err != nil {
		t.Fatal(err)
	}
	bad := &unhealthyConn{Conn: raw}
	p.Put("server", bad)
	if !bad.closed {
		t.Error("unhealthy session not closed on Put")
	}
	if got := p.IdleCount(); got != 0 {
		t.Errorf("IdleCount = %d, want 0: poisoned session was pooled", got)
	}
}

// TestPeerClosedTCP: a dialled TCP connection reads as open while its
// peer holds it — the check costs no allocation, so a sender can make it
// before every reuse — and as closed once the peer has closed its end.
func TestPeerClosedTCP(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the peer-close probe is Linux-only")
	}
	tr := NewTCP()
	ln, err := tr.Listen("peer.example")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := tr.Dial("self.example", "peer.example")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer := <-accepted
	if PeerClosed(c) {
		t.Fatal("an open connection reads as closed")
	}
	if a := testing.AllocsPerRun(100, func() { PeerClosed(c) }); a != 0 {
		t.Errorf("PeerClosed allocates %.0f times per check, want 0", a)
	}
	peer.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !PeerClosed(c) {
		if time.Now().After(deadline) {
			t.Fatal("the peer's close never showed")
		}
		time.Sleep(time.Millisecond)
	}
}
