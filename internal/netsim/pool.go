package netsim

import (
	"net"
	"sync"
	"time"
)

// HealthChecker is optionally implemented by transports that can answer
// "would a Dial from from to to be refused right now?" without actually
// dialing. Connection pools consult it before reusing an idle connection,
// so runtime failure injection (SetDown, Block, scheduled down-windows)
// keeps its dial-time semantics even when no dial happens: a pooled
// connection to a peer that has since gone down is evicted, and the
// caller's fresh dial surfaces the refusal exactly as before pooling.
type HealthChecker interface {
	Healthy(from, to string) bool
}

// PoolOptions bound a connection pool. The zero value applies the
// defaults noted on each field.
type PoolOptions struct {
	// MaxIdlePerPeer caps the idle connections retained per destination
	// endpoint (default 4).
	MaxIdlePerPeer int
	// MaxIdle caps the idle connections retained across all peers
	// (default 128). At the cap the oldest idle connection anywhere is
	// evicted.
	MaxIdle int
	// IdleTTL discards idle connections older than this (default 2m).
	IdleTTL time.Duration
	// Wrap, when non-nil, wraps every connection the pool dials before it
	// is first used — the hook that attaches per-connection session state
	// (e.g. a persistent wire codec) that must live exactly as long as
	// the connection does.
	Wrap func(net.Conn) net.Conn
}

func (o PoolOptions) perPeer() int {
	if o.MaxIdlePerPeer <= 0 {
		return 4
	}
	return o.MaxIdlePerPeer
}

func (o PoolOptions) maxIdle() int {
	if o.MaxIdle <= 0 {
		return 128
	}
	return o.MaxIdle
}

func (o PoolOptions) ttl() time.Duration {
	if o.IdleTTL <= 0 {
		return 2 * time.Minute
	}
	return o.IdleTTL
}

// Pool keeps idle connections from one local endpoint to its peers so
// repeat sends skip the per-message dial. Reuse is best-effort: a pooled
// connection may have died while idle (the peer closed it), in which case
// the next send on it fails and the caller falls back to a fresh dial —
// the pool never invents reachability, it only skips handshakes.
type Pool struct {
	tr   Transport
	from string
	opts PoolOptions

	mu     sync.Mutex
	idle   map[string][]pooledConn
	total  int
	closed bool
}

type pooledConn struct {
	c  net.Conn
	at time.Time // when the connection went idle
}

// NewPool returns a pool dialing from the named local endpoint over tr.
func NewPool(tr Transport, from string, opts PoolOptions) *Pool {
	return &Pool{tr: tr, from: from, opts: opts, idle: make(map[string][]pooledConn)}
}

// Get returns a connection to the named endpoint, preferring an idle
// pooled one (reused == true) and dialing otherwise. Callers must hand
// the connection back with Put after a successful send, or Close it on
// error.
func (p *Pool) Get(to string) (conn net.Conn, reused bool, err error) {
	if c := p.take(to); c != nil {
		return c, true, nil
	}
	c, err := p.Dial(to)
	return c, false, err
}

// Dial opens (and wraps) a fresh connection to the named endpoint,
// bypassing the idle set — for callers replacing a connection that just
// proved stale. The result may be handed back with Put like any other.
func (p *Pool) Dial(to string) (net.Conn, error) {
	c, err := p.tr.Dial(p.from, to)
	if err != nil {
		return nil, err
	}
	if p.opts.Wrap != nil {
		c = p.opts.Wrap(c)
	}
	return c, nil
}

// take pops the most recently used healthy idle connection to to, or nil.
func (p *Pool) take(to string) net.Conn {
	hc, checks := p.tr.(HealthChecker)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	list := p.idle[to]
	if len(list) == 0 {
		return nil
	}
	if checks && !hc.Healthy(p.from, to) {
		// The peer is administratively unreachable right now: evict every
		// idle connection to it so the caller's Dial reports the refusal.
		for _, pc := range list {
			pc.c.Close()
		}
		p.total -= len(list)
		delete(p.idle, to)
		return nil
	}
	// Oldest entries sit at the front; discard the expired prefix.
	cutoff := time.Now().Add(-p.opts.ttl())
	drop := 0
	for drop < len(list) && list[drop].at.Before(cutoff) {
		list[drop].c.Close()
		drop++
	}
	list = list[drop:]
	p.total -= drop
	if len(list) == 0 {
		delete(p.idle, to)
		return nil
	}
	pc := list[len(list)-1]
	list = list[:len(list)-1]
	p.total--
	if len(list) == 0 {
		delete(p.idle, to)
	} else {
		p.idle[to] = list
	}
	return pc.c
}

// ConnHealth is optionally implemented by wrapped connections carrying
// session state that can fail independently of the transport — e.g. a
// wire session poisoned by a mid-frame error. Put consults it so a
// poisoned session is closed, never re-pooled for another sender.
type ConnHealth interface {
	Healthy() bool
}

// Put returns a connection to the pool after a successful send. The pool
// takes ownership: the connection is retained idle or closed.
func (p *Pool) Put(to string, c net.Conn) {
	if hc, ok := c.(ConnHealth); ok && !hc.Healthy() {
		c.Close()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle[to]) >= p.opts.perPeer() {
		p.mu.Unlock()
		c.Close()
		return
	}
	if p.total >= p.opts.maxIdle() {
		p.evictOldestLocked()
	}
	p.idle[to] = append(p.idle[to], pooledConn{c: c, at: time.Now()})
	p.total++
	p.mu.Unlock()
}

// evictOldestLocked closes the globally oldest idle connection. Callers
// hold p.mu and have ensured the pool is non-empty (total >= maxIdle).
func (p *Pool) evictOldestLocked() {
	var oldestKey string
	var oldestAt time.Time
	for key, list := range p.idle {
		if len(list) == 0 {
			continue
		}
		if oldestKey == "" || list[0].at.Before(oldestAt) {
			oldestKey, oldestAt = key, list[0].at
		}
	}
	if oldestKey == "" {
		return
	}
	list := p.idle[oldestKey]
	list[0].c.Close()
	if len(list) == 1 {
		delete(p.idle, oldestKey)
	} else {
		p.idle[oldestKey] = list[1:]
	}
	p.total--
}

// EvictPeer proactively closes and forgets every idle connection to the
// named endpoint, returning how many were evicted. The cluster health
// layer calls this the moment a replica is declared down, so the next
// send dials fresh (and fails fast, and fails over) instead of writing
// into a dead socket and waiting for the error.
func (p *Pool) EvictPeer(to string) int {
	p.mu.Lock()
	list := p.idle[to]
	delete(p.idle, to)
	p.total -= len(list)
	p.mu.Unlock()
	for _, pc := range list {
		pc.c.Close()
	}
	return len(list)
}

// IdleCount returns the number of idle connections held (for tests and
// introspection).
func (p *Pool) IdleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// Close closes every idle connection and rejects further reuse. Get
// still works on a closed pool — it degrades to plain dialing — so a
// racing sender never observes an error it wouldn't see without a pool.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = make(map[string][]pooledConn)
	p.total = 0
	p.mu.Unlock()
	for _, list := range idle {
		for _, pc := range list {
			pc.c.Close()
		}
	}
}
