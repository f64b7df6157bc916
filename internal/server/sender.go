package server

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"webdis/internal/cluster"
	"webdis/internal/netsim"
	"webdis/internal/trace"
	"webdis/internal/wire"
)

// lockedRand is the server's private, seeded randomness. math/rand's
// *Rand is not concurrency-safe and the global source is not seedable
// per server, so each server carries its own source behind a mutex —
// workers and fan-out goroutines all draw jitter from it. A fixed seed
// makes retry/backoff schedules (and so the chaos differential runs)
// reproducible.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// newLockedRand seeds a server's randomness. A zero seed derives a
// stable per-site seed from the site name, so two servers never share a
// jitter schedule yet every run replays identically.
func newLockedRand(seed int64, site string) *lockedRand {
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(site))
		seed = int64(h.Sum64())
	}
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

// Int63n mirrors rand.Int63n over the locked source.
func (l *lockedRand) Int63n(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Int63n(n)
}

// RetryPolicy bounds the forward-resilience loop wrapped around every
// remote send (clone forwards, result dispatches, bounces). The zero
// value sends exactly once with no timeout — the paper's original
// behaviour, where any failure is immediately terminal.
type RetryPolicy struct {
	// Attempts is the total number of tries per message (1 or less means
	// no retry).
	Attempts int
	// Base is the backoff before the first retry; each further retry
	// doubles it, up to Max. A ±25% jitter decorrelates competing
	// senders. Base <= 0 with Attempts > 1 retries immediately.
	Base time.Duration
	// Max caps the backoff (0 means uncapped).
	Max time.Duration
	// Timeout bounds one attempt (dial + send); 0 means no bound. An
	// attempt that exceeds it is abandoned — its connection is closed —
	// and the next attempt starts.
	Timeout time.Duration
}

func (r RetryPolicy) attempts() int {
	if r.Attempts < 1 {
		return 1
	}
	return r.Attempts
}

// backoff returns the pause before retry number n (1-based), jittered
// ±25% from the server's seeded source so schedules are reproducible.
func (r RetryPolicy) backoff(n int, rng *lockedRand) time.Duration {
	if r.Base <= 0 {
		return 0
	}
	d := r.Base << (n - 1)
	if r.Max > 0 && d > r.Max {
		d = r.Max
	}
	j := time.Duration(rng.Int63n(int64(d)/2+1)) - d/4
	return d + j
}

// Sender is an endpoint's outbound half — the paper's Query and Result
// Dispatchers (Section 4.4). Every Server owns one, and so does the
// user-site's client: one connection pool whose connections carry a
// persistent wire session, the retry policy around every send, replica
// failover for clones, the down-replica pool eviction, and the Retry and
// Failover journal entries.
type Sender struct {
	pool    *netsim.Pool
	met     *Metrics
	retry   RetryPolicy
	rng     *lockedRand
	journal *trace.Journal
	cluster *cluster.Membership
	unsub   func()

	// quit closes on Close and wakes backoff pauses.
	quit      chan struct{}
	closeOnce sync.Once
}

// NewSender returns the sender of the endpoint self: every message is
// sent once, with no timeout (the zero RetryPolicy), its connection
// counters and failovers booked in met and its failovers journaled in j
// (nil journals nothing). With cl set, clones resolve a replica per site
// and idle connections to a replica declared down are evicted.
func NewSender(tr netsim.Transport, self string, met *Metrics, j *trace.Journal, cl *cluster.Membership) *Sender {
	return newSender(tr, self, met, j, cl, RetryPolicy{}, nil)
}

func newSender(tr netsim.Transport, self string, met *Metrics, j *trace.Journal, cl *cluster.Membership, pol RetryPolicy, rng *lockedRand) *Sender {
	o := &Sender{
		// Pooled connections carry many frames, so attach a persistent
		// wire session: its intern tables then amortize across a
		// connection's lifetime.
		pool: netsim.NewPool(tr, self, netsim.PoolOptions{
			Wrap: func(c net.Conn) net.Conn { return wire.NewFramed(c) },
		}),
		met: met, retry: pol, rng: rng, journal: j, cluster: cl,
		quit: make(chan struct{}),
	}
	if cl != nil {
		// Evict idle connections to a replica the moment the health layer
		// declares it down, instead of waiting for the next send on a dead
		// socket to fail.
		o.unsub = cl.Subscribe(func(ep string, st cluster.State) {
			if st == cluster.Down {
				o.pool.EvictPeer(ep)
			}
		})
	}
	return o
}

// Close wakes every backoff pause, detaches the replica subscription and
// closes the idle connections. A send after Close still goes out over a
// fresh dial, but gives up where it would have paused to retry.
// Idempotent.
func (o *Sender) Close() {
	o.closeOnce.Do(func() {
		close(o.quit)
		if o.unsub != nil {
			o.unsub()
		}
		o.pool.Close()
	})
}

// errNoReplica is returned by SendSite when every replica of the
// destination site has been tried and failed.
var errNoReplica = errors.New("server: no replica of the destination site is reachable")

// SendSite delivers one clone to the named logical site and returns the
// endpoint that took it and the number of failovers it took. Without a
// membership table the clone goes to the site's classic endpoint. With
// one, a replica is resolved through Pick and — when the retry policy
// exhausts against it — the next live one is tried (the mid-traversal
// failover path), each outcome reported so the health state machine
// learns from real traffic. Replicas in exclude are not picked; they do
// not count as failovers. Only after every replica has been tried does
// the error surface to the caller's bounce or retire path.
func (o *Sender) SendSite(site string, c *wire.CloneMsg, exclude map[string]bool) (string, int, error) {
	cl := o.cluster
	if cl == nil {
		ep := Endpoint(site)
		return ep, 0, o.Send(ep, c)
	}
	tried, owned := exclude, false
	failovers := 0
	var lastErr error
	for {
		ep, ok := cl.Pick(site, c.ID.String(), tried)
		if !ok {
			if lastErr == nil {
				lastErr = errNoReplica
			}
			return "", failovers, lastErr
		}
		if lastErr != nil {
			failovers++
			o.met.Failovers.Add(1)
			o.journal.AppendClone(c, trace.Failover, "", c.State(), site+" -> "+ep)
		}
		err := o.Send(ep, c)
		if err == nil {
			cl.ReportSuccess(ep)
			return ep, failovers, nil
		}
		cl.ReportFailure(ep)
		lastErr = err
		if !owned {
			m := make(map[string]bool, len(exclude)+2)
			for k := range exclude {
				m[k] = true
			}
			tried, owned = m, true
		}
		tried[ep] = true
	}
}

// Send delivers one message to the named endpoint under the retry policy.
// It reports the last error when every attempt failed.
func (o *Sender) Send(to string, msg any) error {
	pol := o.retry
	var err error
	for i := 1; i <= pol.attempts(); i++ {
		if i > 1 {
			o.met.Retries.Add(1)
			o.jotRetry(to, msg, i, err)
			if !o.backoff(i - 1) {
				return err // sender closing; give up quietly
			}
		}
		if err = o.attempt(to, msg, pol.Timeout); err == nil {
			return nil
		}
	}
	return err
}

// jotRetry journals one repeat send attempt, recovering the span context
// from whichever message kind is being resent.
func (o *Sender) jotRetry(to string, msg any, attempt int, lastErr error) {
	if o.journal == nil {
		return
	}
	e := trace.Event{
		Kind:   trace.Retry,
		Detail: to + " attempt " + strconv.Itoa(attempt) + ": " + lastErr.Error(),
	}
	switch m := msg.(type) {
	case *wire.CloneMsg:
		e.Query, e.Span, e.Parent, e.Hop, e.State = m.ID.String(), m.Span, m.Parent, m.Hops, m.State().String()
	case *wire.ResultMsg:
		e.Query, e.Span, e.Hop = m.ID.String(), m.Span, m.Hop
	case *wire.BounceMsg:
		e.Query, e.Span, e.Parent, e.Hop, e.State = m.Clone.ID.String(), m.Clone.Span, m.Clone.Parent, m.Clone.Hops, m.Clone.State().String()
	}
	o.journal.Append(e)
}

// attempt performs one delivery attempt, bounded by timeout when
// positive.
func (o *Sender) attempt(to string, msg any, timeout time.Duration) error {
	if timeout <= 0 {
		return o.sendOnce(to, msg, nil)
	}

	// Run the attempt in a goroutine so a stalled dial or send cannot
	// wedge the Query Processor; on timeout the attempt's current
	// connection is closed, which unblocks the send and bounds the
	// goroutine's life.
	var mu sync.Mutex
	var conn net.Conn
	timedOut := false
	register := func(c net.Conn) bool {
		mu.Lock()
		defer mu.Unlock()
		if timedOut {
			return false
		}
		conn = c
		return true
	}
	done := make(chan error, 1)
	go func() { done <- o.sendOnce(to, msg, register) }()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		mu.Lock()
		timedOut = true
		if conn != nil {
			conn.Close()
		}
		mu.Unlock()
		return errAttemptTimeout
	}
}

// sendOnce delivers msg over a pooled or freshly dialed connection.
// register, when non-nil, is offered every connection the attempt uses
// (and nil once the connection is safely back in the pool) so a timed-out
// attempt can close it; register returning false means the attempt
// already timed out and the connection must not be used.
//
// Failure semantics match the seed's dial-per-message behaviour exactly:
// dial refusals and the fabric's injected faults (ErrDropped, ErrSevered)
// surface unchanged to the retry policy. The one pooling artifact — a
// reused connection that died while idle, e.g. a result-collector
// endpoint closed by passive termination — is transparently redone over
// one fresh dial within the same attempt, whose outcome (refusal,
// injected fault, success) is then exactly what the seed would have seen.
// A TCP connection whose peer has closed is found before it is used
// (netsim.PeerClosed); any other is found when the write fails.
func (o *Sender) sendOnce(to string, msg any, register func(net.Conn) bool) error {
	conn, reused, err := o.pool.Get(to)
	if err == nil && reused && netsim.PeerClosed(conn) {
		// The peer closed the pooled connection while it sat idle (a
		// collector that exited): a write into it would succeed once and
		// its frame be lost. Dial fresh instead.
		conn.Close()
		o.met.ConnStale.Add(1)
		conn, err = o.pool.Dial(to)
		reused = false
	}
	if err != nil {
		return err
	}
	if reused {
		o.met.ConnReused.Add(1)
	} else {
		o.met.ConnDialed.Add(1)
	}
	if register != nil && !register(conn) {
		conn.Close()
		return errAttemptTimeout
	}
	err = deliver(conn, msg, !reused)
	if err == nil {
		if register != nil && !register(nil) {
			// Timed out concurrently with success; the caller already gave
			// up on this attempt, so do not re-pool the connection.
			conn.Close()
			return errAttemptTimeout
		}
		o.pool.Put(to, conn)
		return nil
	}
	conn.Close()
	if !reused || errors.Is(err, netsim.ErrDropped) || errors.Is(err, netsim.ErrSevered) {
		// A fresh connection failed, or the fault injection ate the frame:
		// report it unchanged. In particular an injected drop must NOT be
		// transparently resent — the no-retry configuration demonstrably
		// loses that frame, exactly as without pooling.
		return err
	}
	// Stale pooled connection: redo once over a fresh dial.
	o.met.ConnStale.Add(1)
	conn, err = o.pool.Dial(to)
	if err != nil {
		return err
	}
	o.met.ConnDialed.Add(1)
	if register != nil && !register(conn) {
		conn.Close()
		return errAttemptTimeout
	}
	err = deliver(conn, msg, true)
	if err != nil {
		conn.Close()
		return err
	}
	if register != nil && !register(nil) {
		conn.Close()
		return errAttemptTimeout
	}
	o.pool.Put(to, conn)
	return nil
}

// deliver sends msg on conn. A result report that opens a fresh session
// also waits for the user-site to take it: a Result Collector keeps a
// session only if it still routes the session's first report, and closes
// the connection otherwise — so a site that has never reported to this
// user-site learns of a cancelled query where the paper has it learn, as
// a failed dispatch, before it forwards any clone. The round trip is paid
// once per site and user-site; on an established session reports stay
// fire-and-forget and a cancelled query is stopped actively instead.
func deliver(conn net.Conn, msg any, fresh bool) error {
	if err := wire.Send(conn, msg); err != nil {
		return err
	}
	if _, report := msg.(*wire.ResultMsg); report && fresh {
		return wire.Settle(conn)
	}
	return nil
}

type timeoutErr string

func (e timeoutErr) Error() string { return string(e) }

const errAttemptTimeout = timeoutErr("server: send attempt timed out")

// backoff sleeps out the jittered pause before retry number n
// (1-based), waking early when the sender closes; it reports whether the
// caller should go on retrying.
func (o *Sender) backoff(n int) bool {
	d := o.retry.backoff(n, o.rng)
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-o.quit:
		return false
	}
}
