package server

import (
	"sync"
	"time"

	"webdis/internal/wire"
)

// BatchOptions bound the server-side result batcher
// (Options.ResultBatch). The seed engine ships one ResultMsg per
// processed clone message; on fan-in heavy topologies — hub sites
// receiving clones from many parents — that makes the result stream the
// dominant message class. The batcher coalesces the per-clone reports
// destined for one user-site query into a single size/age-bounded frame
// instead.
//
// The CHT's signed counting makes the delay safe: a child's own report
// may now overtake its parent's buffered update by up to MaxAge, which
// drives the entry's count transiently negative — exactly the asynchrony
// the completion protocol already tolerates (see the client package).
// Completion detection itself is delayed by at most MaxAge.
//
// One semantic shift, documented in DESIGN.md §9: with batching on, a
// clone's forwards no longer wait for its result dispatch to succeed, so
// the passive-termination signal (a failed dispatch, paper §2.8) is
// observed at the query's next flush rather than before forwarding. The
// batcher then drops the query's subsequent reports, so the site still
// quiesces one flush later.
type BatchOptions struct {
	// MaxRows flushes a query's batch once it buffers this many result
	// rows (0 with MaxAge set uses the 128 default).
	MaxRows int
	// MaxAge bounds how long a report may sit buffered before the batch
	// is flushed (0 with MaxRows set uses the 2ms default).
	MaxAge time.Duration
}

// Enabled reports whether the options turn the batcher on; the zero
// value is the seed's one-message-per-clone behaviour.
func (b BatchOptions) Enabled() bool { return b.MaxRows > 0 || b.MaxAge > 0 }

func (b BatchOptions) maxRows() int {
	if b.MaxRows > 0 {
		return b.MaxRows
	}
	return 128
}

func (b BatchOptions) maxAge() time.Duration {
	if b.MaxAge > 0 {
		return b.MaxAge
	}
	return 2 * time.Millisecond
}

// tuneMaxRows and tuneMaxAge cap what a TUNE frame may request: the
// collector is advisory, but the server bounds how much buffering it
// will do on a remote's say-so.
const (
	tuneMaxRows = 8192
	tuneMaxAge  = 100 * time.Millisecond
)

// tuneOverride holds one query's TUNE-adjusted batch bounds; a zero
// field falls back to the server-wide BatchOptions.
type tuneOverride struct {
	maxRows int
	maxAge  time.Duration
}

// deadTTL is how long a query whose collector refused a flush stays
// blacklisted; entries are pruned lazily, so the bound only matters for
// memory, not correctness (resends to a closed collector just fail
// again).
const deadTTL = time.Minute

// batch accumulates the reports of one query between flushes.
type batch struct {
	id      wire.QueryID
	reports []wire.Report
	rows    int
	oldest  time.Time
}

// add appends one report under the batcher's lock.
func (b *batch) add(r wire.Report) {
	if len(b.reports) == 0 {
		b.oldest = time.Now()
	}
	b.reports = append(b.reports, r)
	b.rows += r.Rows()
}

// resultBatcher coalesces result reports per query into bounded frames.
// One instance per server; add is called from the Query Processor
// workers, the age flusher runs on its own goroutine.
type resultBatcher struct {
	s    *Server
	opts BatchOptions

	mu      sync.Mutex
	batches map[string]*batch       // keyed by QueryID.String()
	dead    map[string]time.Time    // queries whose collector failed a flush
	tunes   map[string]tuneOverride // per-query TUNE-adjusted bounds
	started bool
	closed  sync.Once
	stopCh  chan struct{}
	done    chan struct{}
}

func newResultBatcher(s *Server, opts BatchOptions) *resultBatcher {
	return &resultBatcher{
		s:       s,
		opts:    opts,
		batches: make(map[string]*batch),
		dead:    make(map[string]time.Time),
		tunes:   make(map[string]tuneOverride),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// start launches the age flusher.
func (rb *resultBatcher) start() {
	rb.mu.Lock()
	rb.started = true
	rb.mu.Unlock()
	go func() {
		defer close(rb.done)
		interval := rb.opts.maxAge() / 4
		if interval < 500*time.Microsecond {
			interval = 500 * time.Microsecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rb.flushAged()
			case <-rb.stopCh:
				return
			}
		}
	}()
}

// close stops the age flusher and flushes everything still buffered.
// Safe when the batcher was never started, and idempotent.
func (rb *resultBatcher) close() {
	rb.closed.Do(func() {
		rb.mu.Lock()
		started := rb.started
		rb.mu.Unlock()
		if started {
			close(rb.stopCh)
			<-rb.done
		}
		rb.mu.Lock()
		var out []*batch
		for _, b := range rb.batches {
			out = append(out, b)
		}
		rb.batches = make(map[string]*batch)
		rb.mu.Unlock()
		for _, b := range out {
			rb.flush(b)
		}
	})
}

// add buffers one report for the query, flushing inline when the row
// bound is reached. It reports false when the query's collector is known
// gone (a previous flush failed) — the batched analog of a failed
// dispatch, which tells the caller to purge the clone instead of
// forwarding its children.
func (rb *resultBatcher) add(id wire.QueryID, r wire.Report) bool {
	key := id.String()
	rb.mu.Lock()
	if at, gone := rb.dead[key]; gone {
		if time.Since(at) < deadTTL {
			rb.mu.Unlock()
			return false
		}
		delete(rb.dead, key)
	}
	b := rb.batches[key]
	if b == nil {
		b = &batch{id: id}
		rb.batches[key] = b
	}
	b.add(r)
	rb.s.met.ResultReports.Add(1)
	limit := rb.opts.maxRows()
	if o, ok := rb.tunes[key]; ok && o.maxRows > 0 {
		limit = o.maxRows
	}
	var out *batch
	if b.rows >= limit {
		delete(rb.batches, key)
		out = b
	}
	rb.mu.Unlock()
	if out != nil {
		rb.flush(out)
	}
	return true
}

// flushAged flushes every batch whose oldest report has exceeded its
// query's age bound (the TUNE override when one is set).
func (rb *resultBatcher) flushAged() {
	now := time.Now()
	rb.mu.Lock()
	var out []*batch
	for key, b := range rb.batches {
		age := rb.opts.maxAge()
		if o, ok := rb.tunes[key]; ok && o.maxAge > 0 {
			age = o.maxAge
		}
		if b.oldest.Before(now.Add(-age)) {
			delete(rb.batches, key)
			out = append(out, b)
		}
	}
	rb.mu.Unlock()
	for _, b := range out {
		rb.flush(b)
	}
}

// tune applies one TUNE frame: the query's collector asking for larger
// (backpressure) or default (drained) batch bounds. A message with both
// fields zero clears the override.
func (rb *resultBatcher) tune(m *wire.TuneMsg) {
	key := m.ID.String()
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if m.MaxRows <= 0 && m.MaxAgeMicros <= 0 {
		delete(rb.tunes, key)
		return
	}
	var o tuneOverride
	if m.MaxRows > 0 {
		o.maxRows = min(m.MaxRows, tuneMaxRows)
	}
	if m.MaxAgeMicros > 0 {
		o.maxAge = min(time.Duration(m.MaxAgeMicros)*time.Microsecond, tuneMaxAge)
	}
	// Bound the override registry; dropping stale entries just reverts
	// those queries to the server-wide defaults.
	if len(rb.tunes) >= 256 {
		rb.tunes = make(map[string]tuneOverride)
	}
	rb.tunes[key] = o
}

// flush ships one coalesced frame to the query's result collector. A
// failed send is the passive-termination signal (paper §2.8): the query
// is blacklisted so later reports are dropped instead of re-buffered.
func (rb *resultBatcher) flush(b *batch) {
	msg := &wire.ResultMsg{ID: b.id, Reports: b.reports}
	if rb.s.sendResult(msg, 0) != nil {
		rb.s.met.Terminated.Add(1)
		rb.mu.Lock()
		if len(rb.dead) > 256 {
			for k, at := range rb.dead {
				if time.Since(at) >= deadTTL {
					delete(rb.dead, k)
				}
			}
		}
		rb.dead[b.id.String()] = time.Now()
		rb.mu.Unlock()
	}
}
