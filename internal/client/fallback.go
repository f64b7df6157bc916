package client

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webdis/internal/nodeproc"
	"webdis/internal/relmodel"
	"webdis/internal/trace"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

// FallbackStats describes the hybrid fallback work a query performed at
// the user-site on behalf of non-participating sites (Section 7.1 of the
// paper: "queries related to these sites [are handled] in the traditional
// centralized approach").
type FallbackStats struct {
	Bounces      int // bounced clones received from servers
	LocalClones  int // clones processed at the user-site (bounces + re-queues)
	Fetches      int // documents downloaded to the user-site
	Evaluations  int // node-queries evaluated at the user-site
	Rejoined     int // clones handed back to participating query servers
	LoadFailures int // nodes given up on because their document never loaded
}

// fallback is a query's hybrid processor: it evaluates clones addressed
// to non-participating sites by downloading their documents (data
// shipping, the paper's "traditional manner") and re-enters distributed
// mode whenever a continuation targets a participating site.
type fallback struct {
	q     *Query
	fetch *webserver.Fetcher
	eval  nodeproc.Evaluator
	batch nodeproc.Batch // reused clone to clone by run
	cache map[string][]byte
	seq   atomic.Int64

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*wire.CloneMsg
	closed bool
}

func newFallback(q *Query) *fallback {
	f := &fallback{
		q:     q,
		fetch: webserver.NewFetcher(q.c.tr, q.id.Site),
		cache: make(map[string][]byte),
	}
	// The paper's default rules: server options are per site, so there is
	// no one StrictDeadEnds or MaxHops for the user-site to follow (a
	// deployment rejects either with a fallback).
	f.eval = nodeproc.Evaluator{
		Site:   f,
		Origin: q.id.Site,
		Node:   nodeproc.Visitor{Log: nodeproc.NewLogTable(nodeproc.DedupSubsume)},
		Spans:  q.journal != nil,
	}
	f.cond = sync.NewCond(&f.mu)
	go f.run()
	return f
}

// enqueue hands a clone to the fallback processor.
func (f *fallback) enqueue(c *wire.CloneMsg) {
	f.mu.Lock()
	if !f.closed {
		f.queue = append(f.queue, c)
		f.cond.Signal()
	}
	f.mu.Unlock()
}

func (f *fallback) close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

func (f *fallback) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// pendingLen returns the number of queued clones (the reaper must not
// fire while local work is still pending).
func (f *fallback) pendingLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue)
}

func (f *fallback) run() {
	for {
		f.mu.Lock()
		for len(f.queue) == 0 && !f.closed {
			f.cond.Wait()
		}
		if f.closed {
			f.mu.Unlock()
			return
		}
		c := f.queue[0]
		f.queue = f.queue[1:]
		f.mu.Unlock()
		f.process(c)
	}
}

// process runs one clone through the same per-node algorithm a query
// server uses, applying the CHT updates and results directly to the
// query's own tables (the user-site reporting to itself), then forwards
// continuation clones — to a participating server when one answers, back
// onto the local queue otherwise. Updates are applied before forwarding,
// preserving the CHT-before-forward invariant.
func (f *fallback) process(c *wire.CloneMsg) {
	f.q.mu.Lock()
	f.q.fstats.LocalClones++
	f.q.mu.Unlock()
	if f.q.journal != nil {
		f.q.jot(c, trace.Arrive, strconv.Itoa(len(c.Dest))+" dests (fallback)")
	}
	// The clone's budget binds here exactly as at a query server: an
	// expired clone retires unevaluated (the typed EXPIRED retirement), and
	// the shared Batch stops forwarding on a spent hop quota, charges and
	// divides the clone-spawn quota, and clips what is reported to the row
	// quota. A malformed clone retires plainly.
	if c.Budget.ExpiredAt(time.Now().UnixNano()) {
		f.q.merge(&wire.ResultMsg{ID: c.ID, Updates: c.Retirements(), Expired: true})
		return
	}
	b := &f.batch
	if err := b.Begin(&f.eval, c); err != nil {
		f.q.merge(&wire.ResultMsg{ID: c.ID, Updates: c.Retirements()})
		return
	}
	defer b.Reset()
	for _, dest := range c.Dest {
		if f.isClosed() {
			return // cancelled: abandon the remaining destinations
		}
		b.Add(dest)
	}
	n := b.Finish()
	f.q.mu.Lock()
	f.q.fstats.Evaluations += int(n.Evaluations)
	f.q.fstats.LoadFailures += int(n.LoadFailed)
	f.q.mu.Unlock()

	// Apply results and CHT updates locally first (CHT-before-forward).
	f.q.merge(&wire.ResultMsg{ID: c.ID, Updates: b.Updates, Tables: b.Tables})
	f.q.jot(c, trace.Result, "processed centrally")

	for _, oc := range b.Out {
		f.forward(oc)
	}
}

// LoadDB downloads and parses one node's document (nodeproc.Site). The
// download is cached for the query's lifetime like the centralized
// baseline does; a fetch cut down by transient loss (the fabric's fault
// injection) is retried a few times before the node is given up on.
func (f *fallback) LoadDB(url string) (*relmodel.DB, error) {
	content, ok := f.cache[url]
	if !ok {
		var err error
		for attempt := 0; attempt < 4; attempt++ {
			if content, err = f.fetch.Get(url); err == nil || f.isClosed() {
				break
			}
		}
		if err != nil {
			return nil, err
		}
		f.q.mu.Lock()
		f.q.fstats.Fetches++
		f.q.mu.Unlock()
		f.cache[url] = content
	}
	return nodeproc.BuildDB(url, content)
}

// NextSerial numbers the next CHT entry the fallback creates
// (nodeproc.Site); the user-site is their origin.
func (f *fallback) NextSerial(wire.QueryID) int64 { return f.seq.Add(1) }

// NextSpan numbers the next trace span the fallback opens (nodeproc.Site).
func (f *fallback) NextSpan() int64 { return f.q.spanSeq.Add(1) }

// forward hands a continuation clone to its site's query server when it
// participates, otherwise keeps it on the local fallback queue.
func (f *fallback) forward(oc *nodeproc.Out) {
	f.q.jot(oc.Msg, trace.Forward, oc.Site)
	err := f.q.sendSite(oc.Site, oc.Msg)
	if err == nil {
		f.q.mu.Lock()
		f.q.fstats.Rejoined++
		f.q.mu.Unlock()
		return
	}
	f.enqueue(oc.Msg)
}
