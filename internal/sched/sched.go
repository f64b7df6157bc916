// Package sched implements the per-site clone scheduler of the WEBDIS
// query server: the replacement for the paper's single unbounded FIFO
// ("the Query Processor sequentially processes the queue of pending
// web-queries", Section 4.4), built for a multi-user deployment where
// one heavy web-query must not starve a light one and overload must not
// grow the queue without bound.
//
// The queue has three modes layered on one structure:
//
//   - FIFO (the zero Options): exactly the seed behaviour — one global
//     arrival-ordered queue, unbounded, nothing shed.
//   - Weighted fair (Options.Fair): per-flow sub-queues, one per query,
//     drained by deficit round-robin. A flow with weight w receives w
//     service quanta per round, so a 40-site tree scan and a 2-hop
//     lookup share a site in proportion to their weights instead of in
//     arrival order.
//   - Admission control (Options.HighWater > 0, composable with either
//     drain order): when the aggregate depth reaches the high watermark
//     the queue sheds FRESH flows — new queries arriving at this site —
//     until the depth falls under the low watermark. Items of flows
//     already queued here, and all non-fresh items (forwarded clones of
//     queries admitted elsewhere, local re-enqueues), are never shed:
//     in-flight work always completes, so the CHT accounting of an
//     admitted query cannot be broken by load.
//
// The queue must accept non-fresh pushes unconditionally even when
// bounded, because the Query Processor enqueues same-site clones while
// processing — refusing (or blocking) a self-forward would lose
// accounted work (or deadlock). Boundedness under overload comes from
// the admission side instead: every queued item belongs to an admitted
// query, admissions stop at the high watermark, and each admitted query
// contributes finitely many clones.
package sched

import "sync"

// Options configure a Queue. The zero value is the seed behaviour: a
// single unbounded FIFO with no admission control.
type Options struct {
	// Fair drains per-flow (per-query) sub-queues by deficit
	// round-robin instead of global arrival order.
	Fair bool
	// Quantum is the number of items one weight unit buys per DRR round
	// (default 1). Larger quanta trade fairness granularity for fewer
	// pointer rotations; with clone batches as the unit of work the
	// default is right.
	Quantum int
	// HighWater, when positive, arms admission control: once the
	// aggregate depth reaches it, fresh flows are shed until the depth
	// drains below LowWater.
	HighWater int
	// LowWater is the hysteresis floor at which admissions resume
	// (default HighWater/2). The gap keeps the queue from flapping
	// between shedding and admitting on every pop.
	LowWater int
	// OnActivate, when set, is called each time admission control newly
	// engages (the depth crossed the high watermark). It runs outside
	// the queue lock.
	OnActivate func()
}

func (o Options) quantum() int {
	if o.Quantum > 0 {
		return o.Quantum
	}
	return 1
}

func (o Options) lowWater() int {
	if o.LowWater > 0 && o.LowWater < o.HighWater {
		return o.LowWater
	}
	return o.HighWater / 2
}

// Verdict is the outcome of a Push.
type Verdict int

const (
	// Admitted: the item was queued.
	Admitted Verdict = iota
	// Shed: the item was refused — a fresh flow over the high
	// watermark. The caller owns the refusal (typed SHED retirement).
	Shed
	// Closed: the queue is shut down; the item was discarded.
	Closed
)

// Stats is a point-in-time summary of the queue's activity.
type Stats struct {
	Depth       int   // items currently queued
	Peak        int   // maximum depth ever observed
	Flows       int   // flows with queued items
	Shed        int64 // pushes refused by admission control
	Activations int64 // times the depth crossed the high watermark
	Shedding    bool  // admission control currently engaged
}

// flow is one query's sub-queue.
type flow[T any] struct {
	key     string
	weight  int
	deficit int
	items   []T
}

func (f *flow[T]) wt() int {
	if f.weight > 0 {
		return f.weight
	}
	return 1
}

// Queue is the scheduler's clone queue. Push and Pop are safe for
// concurrent use from any number of goroutines; Pop blocks until an
// item is available or the queue closes.
type Queue[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	opts Options

	closed   bool
	shedding bool
	depth    int
	peak     int
	shed     int64
	acts     int64

	// pending counts queued items per flow key in both modes, so
	// admission control can tell a fresh flow from one already queued.
	pending map[string]int

	fifo []fifoItem[T] // FIFO mode storage

	// Fair mode storage: flows holds exactly the flows with queued
	// items, all of which sit in the round-robin ring; cur is the ring
	// position being served.
	flows map[string]*flow[T]
	ring  []*flow[T]
	cur   int
}

type fifoItem[T any] struct {
	key  string
	item T
}

// New returns an empty queue.
func New[T any](opts Options) *Queue[T] {
	q := &Queue[T]{
		opts:    opts,
		pending: make(map[string]int),
	}
	if opts.Fair {
		q.flows = make(map[string]*flow[T])
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push offers one item of the given flow. key identifies the flow (the
// query id), weight its share of service (0 means 1), and fresh whether
// the item would begin a new query at this site (a root dispatch, hop
// 0) — only fresh items of flows not already queued here can be shed.
func (q *Queue[T]) Push(key string, weight int, fresh bool, item T) Verdict {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Closed
	}
	var activated bool
	if q.opts.HighWater > 0 {
		if q.shedding && q.depth < q.opts.lowWater() {
			q.shedding = false
		}
		if !q.shedding && q.depth >= q.opts.HighWater {
			q.shedding = true
			q.acts++
			activated = true
		}
		if q.shedding && fresh && q.pending[key] == 0 {
			q.shed++
			q.mu.Unlock()
			if activated && q.opts.OnActivate != nil {
				q.opts.OnActivate()
			}
			return Shed
		}
	}
	q.pending[key]++
	q.depth++
	if q.depth > q.peak {
		q.peak = q.depth
	}
	if q.opts.Fair {
		f := q.flows[key]
		if f == nil {
			f = &flow[T]{key: key}
			q.flows[key] = f
			if len(q.ring) == 0 {
				q.ring = append(q.ring, f)
				q.cur = 0
			} else {
				// A flow entering the ring is inserted just after the
				// service pointer (the DRR+ refinement): a sparse
				// interactive query is served after at most the item in
				// progress plus the current flow's remaining quantum,
				// instead of a full rotation past every backlogged flow.
				// An active flow that momentarily drains stays PARKED in
				// its ring slot (removed only when the pointer finds it
				// still empty), so a busy query that trickles items one
				// at a time cannot re-enter here and cut ahead of flows
				// already waiting.
				at := q.cur + 1
				q.ring = append(q.ring, nil)
				copy(q.ring[at+1:], q.ring[at:])
				q.ring[at] = f
			}
		}
		f.weight = weight // latest push wins, so weight changes propagate
		f.items = append(f.items, item)
	} else {
		q.fifo = append(q.fifo, fifoItem[T]{key: key, item: item})
	}
	q.cond.Signal()
	q.mu.Unlock()
	if activated && q.opts.OnActivate != nil {
		q.opts.OnActivate()
	}
	return Admitted
}

// Pop removes and returns the next item per the drain policy, blocking
// until one is available. It returns ok == false when the queue has
// been closed (queued items are discarded, the server-stop semantics).
func (q *Queue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depth == 0 && !q.closed {
		q.cond.Wait()
	}
	var zero T
	if q.closed {
		return zero, false
	}
	q.depth--
	if !q.opts.Fair {
		e := q.fifo[0]
		q.fifo = q.fifo[1:]
		q.drop(e.key)
		return e.item, true
	}
	return q.popFair(), true
}

// popFair serves one item by deficit round-robin. Callers hold q.mu and
// have verified at least one item is queued.
func (q *Queue[T]) popFair() T {
	// Reap flows that sat empty since the pointer's last visit: a parked
	// flow whose query produced nothing for a whole rotation is gone (or
	// between bursts, in which case it re-enters at the pointer later).
	for len(q.ring[q.cur].items) == 0 {
		delete(q.flows, q.ring[q.cur].key)
		q.ring = append(q.ring[:q.cur], q.ring[q.cur+1:]...)
		if q.cur >= len(q.ring) {
			q.cur = 0
		}
	}
	f := q.ring[q.cur]
	if f.deficit <= 0 {
		// The pointer (re-)entered this flow: replenish its deficit.
		f.deficit += q.opts.quantum() * f.wt()
	}
	item := f.items[0]
	f.items = f.items[1:]
	f.deficit--
	q.drop(f.key)
	if len(f.items) == 0 {
		// The flow drained: it stays parked in its slot for one rotation
		// but forfeits its residual deficit (standard DRR — an idle flow
		// accrues no credit).
		f.deficit = 0
		q.advance()
	} else if f.deficit <= 0 {
		q.advance()
	}
	return item
}

// advance moves the service pointer one slot. Callers hold q.mu.
func (q *Queue[T]) advance() {
	q.cur++
	if q.cur >= len(q.ring) {
		q.cur = 0
	}
}

// drop decrements a flow's pending count. Callers hold q.mu.
func (q *Queue[T]) drop(key string) {
	if n := q.pending[key]; n <= 1 {
		delete(q.pending, key)
	} else {
		q.pending[key] = n - 1
	}
}

// Close shuts the queue down: queued items are discarded, blocked and
// future Pops return ok == false, and future Pushes report Closed.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Len returns the current depth.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// Pending returns how many items of the flow key are queued.
func (q *Queue[T]) Pending(key string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending[key]
}

// Stats returns a snapshot of the queue's counters.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	flows := len(q.pending)
	return Stats{
		Depth: q.depth, Peak: q.peak, Flows: flows,
		Shed: q.shed, Activations: q.acts, Shedding: q.shedding,
	}
}
