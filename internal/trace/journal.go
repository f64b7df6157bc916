// Package trace is the causal tracing subsystem of the WEBDIS
// reproduction. The paper's whole evaluation is about *who did what
// where* — Figure 7 is literally a hand-drawn trace of query states
// hopping across the campus web — so this package makes that first
// class: every clone message carries a span context (wire.SpanID, parent
// span, hop number), every site appends structured events to a
// lock-cheap site-local Journal, and the Journey builder merges the
// journals back into the per-query clone tree with per-hop latencies and
// per-clone fates.
//
// The design splits into three layers:
//
//   - Journal: a fixed-capacity ring of events claimed with one atomic
//     add and published with one atomic store per append — cheap enough
//     to leave on under load. Full journals count drops instead of
//     blocking writers.
//   - Journey: the per-query clone tree reconstructed from any set of
//     events — full site journals in-process, or the span links echoed
//     on ResultMsg when only the user-site's view exists (real TCP).
//   - Exporters: a Figure-7-style traversal listing, an indented clone
//     tree, a Graphviz DOT overlay matching webgen's output, and Chrome
//     trace_event JSON for chrome://tracing.
package trace

import (
	"runtime"
	"sync/atomic"
	"time"

	"webdis/internal/wire"
)

// Kind classifies one trace event.
type Kind string

// Clone life-cycle events, written by query servers and the user-site.
const (
	// Dispatch is the user-site sending a root clone (send_query).
	Dispatch Kind = "dispatch"
	// Arrive is a query server receiving one clone message.
	Arrive Kind = "arrive"
	// Drop is a duplicate arrival purged by the Node-query Log Table.
	Drop Kind = "dedup-drop"
	// Rewrite is a superset arrival processed after the A*m rewrite.
	Rewrite Kind = "rewrite"
	// Evaluate is one node-query evaluation (a ServerRouter visit).
	Evaluate Kind = "evaluate"
	// Route is a visit with no node-query due (a PureRouter visit).
	Route Kind = "route"
	// DeadEnd is a node-query that found no answer.
	DeadEnd Kind = "dead-end"
	// Missing is a destination node whose document could not be loaded.
	Missing Kind = "missing"
	// Forward is a child clone shipped to another site (or re-queued
	// locally, when Detail — the destination site — equals the event's
	// own Site).
	Forward Kind = "forward"
	// Result is a result/CHT batch dispatched to the user-site.
	Result Kind = "result"
	// Bounce is an undeliverable clone returned to the user-site.
	Bounce Kind = "bounce"
	// Retry is one repeat send attempt under the server's retry policy.
	Retry Kind = "retry-attempt"
	// Terminate is a clone batch purged because its result dispatch
	// failed — the paper's passive termination signal.
	Terminate Kind = "terminate"
	// ForwardFailed is a clone whose forward could not reach its site
	// (after any retries); its CHT entries are retired instead.
	ForwardFailed Kind = "forward-failed"
	// Reap is the user-site retiring orphaned CHT entries.
	Reap Kind = "reap"
	// Expire is a clone terminated for exceeding its wire-carried budget
	// (deadline passed, or a quota spent): the typed EXPIRED retirement.
	// Its CHT entries retire without children.
	Expire Kind = "expire"
	// Shed is a fresh clone refused by admission control — the site was
	// over its high watermark — and returned to the user-site unstarted.
	Shed Kind = "shed"
	// Stop is a clone terminated by the user-site's active-termination
	// broadcast (Budget.FirstN satisfied, or the submitting context was
	// cancelled): the typed STOPPED retirement. Like Expire, its CHT
	// entries retire without children.
	Stop Kind = "stop"
	// Failover is a clone re-resolved to another replica of its
	// destination site after the retry policy exhausted against the
	// first pick: Detail records "site -> endpoint".
	Failover Kind = "failover"
	// Replay is the user-site re-dispatching the live CHT entries it
	// holds for a crashed replica: a fresh clone carrying the original
	// instance serials, sent to a surviving replica, so the traversal
	// resumes where the corpse dropped it.
	Replay Kind = "replay"
	// Invalidate is a site evicting one mutated document's cached state
	// (retained database, store entry, index postings); Detail records
	// whether the change was content-only ("edited") or structural
	// ("rewired").
	Invalidate Kind = "invalidate"
	// Delta is a DELTA notification leaving a site for a standing
	// watch's collector (or the collector folding one in).
	Delta Kind = "delta"
)

// Transport-level events, written by the netsim observer hook.
const (
	Dial         Kind = "dial"
	Refused      Kind = "refused"
	FrameDropped Kind = "frame-dropped"
	Severed      Kind = "severed"
	Crashed      Kind = "crashed"
)

// Event is one record of a site-local journal.
type Event struct {
	Seq    int64         // append order within the journal
	At     time.Duration // monotonic time since the process trace epoch
	Site   string        // journal owner (site, user endpoint, or "(net)")
	Query  string        // wire.QueryID.String(); "" for transport events
	Span   wire.SpanID   // clone message the event belongs to
	Parent wire.SpanID   // span of the clone it was forwarded from
	Kind   Kind
	Node   string // destination node URL (or dial source for net events)
	State  string // canonical (num_q, rem) clone state
	Hop    int    // links traversed by the clone
	Detail string
}

// epoch anchors every journal's monotonic clock: all journals of one
// process share it, so merged events order causally (a parent's forward
// always times before its child's arrival).
var epoch = time.Now()

// Now returns the current monotonic trace time.
func Now() time.Duration { return time.Since(epoch) }

// DefaultCapacity is the journal ring size when none is given.
const DefaultCapacity = 4096

// Journal is a site-local, fixed-capacity event ring. Appends are
// lock-free: a writer claims a slot with one atomic add and publishes it
// with one atomic store, so journaling stays cheap on the query-processor
// hot path. When the ring fills, further events are counted as dropped
// rather than blocking or overwriting — a flushable bound, not a lie.
// A nil *Journal is valid and ignores all writes.
type Journal struct {
	site    string
	cur     atomic.Int64
	dropped atomic.Int64
	slots   []slot
}

type slot struct {
	done atomic.Bool
	ev   Event
}

// NewJournal returns an empty journal owned by site (capacity <= 0 uses
// DefaultCapacity).
func NewJournal(site string, capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{site: site, slots: make([]slot, capacity)}
}

// Site returns the journal owner's name.
func (j *Journal) Site() string {
	if j == nil {
		return ""
	}
	return j.site
}

// Append records one event, stamping its sequence number, timestamp and
// (unless already set) owning site. Safe for concurrent use; a nil
// journal ignores the event.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	i := j.cur.Add(1) - 1
	if i >= int64(len(j.slots)) {
		j.dropped.Add(1)
		return
	}
	if e.Site == "" {
		e.Site = j.site
	}
	e.Seq = i
	e.At = Now()
	s := &j.slots[i]
	s.ev = e
	s.done.Store(true)
}

// AppendClone records one event of clone message c (at node, "" for a
// message-level event), stamped with the clone's span context. A nil
// journal returns before building the event's strings.
func (j *Journal) AppendClone(c *wire.CloneMsg, kind Kind, node string, st wire.State, detail string) {
	if j == nil {
		return
	}
	j.Append(Event{
		Query: c.ID.String(), Span: c.Span, Parent: c.Parent,
		Kind: kind, Node: node, State: st.String(), Hop: c.Hops, Detail: detail,
	})
}

// Len returns the number of events recorded (excluding dropped ones).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	n := j.cur.Load()
	if n > int64(len(j.slots)) {
		n = int64(len(j.slots))
	}
	return int(n)
}

// Dropped returns the number of events lost to a full ring.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// Events returns a copy of the committed events in append order. It is
// safe to call while writers are appending: a slot that has been claimed
// but not yet published is waited out (publication is two instructions
// away, never blocked).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	n := int64(j.Len())
	out := make([]Event, 0, n)
	for i := int64(0); i < n; i++ {
		s := &j.slots[i]
		for !s.done.Load() {
			// The claiming writer is between its atomic add and its
			// publishing store; yield until it lands.
			runtime.Gosched()
		}
		out = append(out, s.ev)
	}
	return out
}

// Flush returns the committed events and resets the journal, reclaiming
// the ring (and the drop counter) for the next query. It may run beside
// concurrent Appends (a daemon draining its live journal): the ring is
// closed for the duration, so an event appended meanwhile counts as
// dropped instead of landing in a slot being reclaimed. Only one Flush
// may run at a time.
func (j *Journal) Flush() []Event {
	if j == nil {
		return nil
	}
	// Closing the ring first pins the set of claimed slots: every later
	// Append sees an index past the end and books a drop.
	n := min(j.cur.Swap(int64(len(j.slots))), int64(len(j.slots)))
	j.dropped.Store(0)
	out := make([]Event, 0, n)
	for i := range j.slots[:n] {
		s := &j.slots[i]
		for !s.done.Load() {
			runtime.Gosched() // claimed before the close, publishing now
		}
		out = append(out, s.ev)
		s.done.Store(false)
	}
	j.cur.Store(0)
	return out
}
