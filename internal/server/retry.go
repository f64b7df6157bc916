package server

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

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

// errNoReplica is returned by sendSite when every replica of the
// destination site has been tried and failed.
var errNoReplica = errors.New("server: no replica of the destination site is reachable")

// sendSite delivers one clone to the named logical site. Unclustered
// servers send to the site's classic endpoint; clustered ones resolve a
// replica through the membership table and — when the full retry policy
// exhausts against that replica — re-resolve and replay against the next
// live one (the mid-traversal failover path), reporting each outcome so
// the health state machine learns from real traffic. Only after every
// replica has been tried does the error surface to the bounce/retire
// path.
func (s *Server) sendSite(site string, c *wire.CloneMsg) error {
	cl := s.opts.Cluster
	if cl == nil {
		return s.send(Endpoint(site), c)
	}
	var tried map[string]bool
	var lastErr error
	for {
		ep, ok := cl.Pick(site, c.ID.String(), tried)
		if !ok {
			if lastErr == nil {
				lastErr = errNoReplica
			}
			return lastErr
		}
		if tried != nil {
			s.met.Failovers.Add(1)
			if s.opts.Journal != nil {
				s.jot(c, trace.Failover, site+" -> "+ep)
			}
		}
		err := s.send(ep, c)
		if err == nil {
			cl.ReportSuccess(ep)
			return nil
		}
		cl.ReportFailure(ep)
		lastErr = err
		if tried == nil {
			tried = make(map[string]bool, 2)
		}
		tried[ep] = true
	}
}

// send delivers one message to the named endpoint under the server's
// retry policy. It reports the last error when every attempt failed.
func (s *Server) send(to string, msg any) error {
	pol := s.opts.Retry
	var err error
	for i := 1; i <= pol.attempts(); i++ {
		if i > 1 {
			s.met.Retries.Add(1)
			s.jotRetry(to, msg, i, err)
			if !s.pause(pol.backoff(i-1, s.rng)) {
				return err // server stopping; give up quietly
			}
		}
		if err = s.attemptSend(to, msg, pol.Timeout); err == nil {
			return nil
		}
	}
	return err
}

// jotRetry journals one repeat send attempt, recovering the span context
// from whichever message kind is being resent.
func (s *Server) jotRetry(to string, msg any, attempt int, lastErr error) {
	if s.opts.Journal == nil {
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
	s.opts.Journal.Append(e)
}

// attemptSend performs one delivery attempt, bounded by timeout when
// positive.
func (s *Server) attemptSend(to string, msg any, timeout time.Duration) error {
	if timeout <= 0 {
		return s.sendOnce(to, msg, nil)
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
	go func() { done <- s.sendOnce(to, msg, register) }()
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
func (s *Server) sendOnce(to string, msg any, register func(net.Conn) bool) error {
	conn, reused, err := s.pool.Get(to)
	if err != nil {
		return err
	}
	if reused {
		s.met.ConnReused.Add(1)
	} else {
		s.met.ConnDialed.Add(1)
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
		s.pool.Put(to, conn)
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
	s.met.ConnStale.Add(1)
	conn, err = s.pool.Dial(to)
	if err != nil {
		return err
	}
	s.met.ConnDialed.Add(1)
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
	s.pool.Put(to, conn)
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

// pause sleeps for d but wakes early when the server stops, reporting
// whether the caller should continue.
func (s *Server) pause(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	s.mu.Lock()
	stop := s.stop
	s.mu.Unlock()
	if stop == nil {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
