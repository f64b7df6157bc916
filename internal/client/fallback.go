package client

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webdis/internal/disql"
	"webdis/internal/nodeproc"
	"webdis/internal/pre"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
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
	log   *nodeproc.LogTable
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
		log:   nodeproc.NewLogTable(nodeproc.DedupSubsume),
		cache: make(map[string][]byte),
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

// load fetches a document, caching it for the query's lifetime like the
// centralized baseline does. A fetch cut down by transient loss (the
// fabric's fault injection) is retried a few times before the node is
// given up on.
func (f *fallback) load(url string) ([]byte, error) {
	if content, ok := f.cache[url]; ok {
		return content, nil
	}
	var content []byte
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if content, err = f.fetch.Get(url); err == nil {
			break
		}
		if f.isClosed() {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}
	f.q.mu.Lock()
	f.q.fstats.Fetches++
	f.q.mu.Unlock()
	f.cache[url] = content
	return content, nil
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
	// expired clone retires unevaluated, a spent hop quota stops
	// forwarding, and the row quota clips what is reported.
	if c.Budget.ExpiredAt(time.Now().UnixNano()) {
		f.retireAll(c, true)
		return
	}

	stages, _, err := nodeproc.ParseStagesCached(c.Stages)
	arrRem, _, err2 := pre.ParseCached(c.Rem)
	if err != nil || err2 != nil || len(stages) == 0 {
		f.retireAll(c, false)
		return
	}

	var updates []wire.CHTUpdate
	var tables []wire.NodeTable
	outs := make(map[string]*wire.CloneMsg)
	var order []string
	rows := c.Budget.Rows // row quota left

	seen := make(map[string]bool)
	for _, dest := range c.Dest {
		if f.isClosed() {
			return // cancelled: abandon the remaining destinations
		}
		if seen[dest.URL] {
			continue
		}
		seen[dest.URL] = true
		upd, tbls := f.processNode(dest, arrRem, stages, c, outs, &order, &rows)
		updates = append(updates, upd)
		tables = append(tables, tbls...)
	}
	for _, key := range order {
		outs[key].Budget.Rows = rows
	}

	// Apply results and CHT updates locally first (CHT-before-forward).
	f.q.merge(&wire.ResultMsg{ID: c.ID, Updates: updates, Tables: tables})
	f.q.jot(c, trace.Result, "processed centrally")

	for _, key := range order {
		f.forward(outs[key])
	}
}

// processNode mirrors server.processNode for local execution.
func (f *fallback) processNode(dest wire.DestNode, arrRem pre.Expr, stages []disql.Stage, c *wire.CloneMsg, outs map[string]*wire.CloneMsg, order *[]string, rows *int) (wire.CHTUpdate, []wire.NodeTable) {
	node := dest.URL
	arrival := wire.CHTEntry{
		Node:   node,
		State:  wire.State{NumQ: len(stages), Rem: arrRem.String()},
		Origin: dest.Origin,
		Seq:    dest.Seq,
	}
	update := wire.CHTUpdate{Processed: arrival}

	rem := arrRem
	switch v := f.log.Check(node, c.ID, len(stages), rem, wire.EnvKey(c.Env)); v.Action {
	case nodeproc.Drop:
		return update, nil
	case nodeproc.Rewrite:
		rem = v.Rem
	}

	content, err := f.load(node)
	if err != nil {
		f.q.mu.Lock()
		f.q.fstats.LoadFailures++
		f.q.mu.Unlock()
		return update, nil
	}
	db, err := nodeproc.BuildDB(node, content)
	if err != nil {
		return update, nil
	}

	var tables []wire.NodeTable
	type item struct {
		rem    pre.Expr
		stages []disql.Stage
		base   int
		env    map[string]string
	}
	work := []item{{rem, stages, c.Base, c.Env}}
	first := true
	for len(work) > 0 {
		it := work[0]
		work = work[1:]
		if !first {
			switch v := f.log.Check(node, c.ID, len(it.stages), it.rem, wire.EnvKey(it.env)); v.Action {
			case nodeproc.Drop:
				continue
			case nodeproc.Rewrite:
				it.rem = v.Rem
			}
		}
		first = false

		res, err := nodeproc.Step(db, node, it.rem, it.stages[0], len(it.stages) > 1, it.env)
		if err != nil {
			continue
		}
		if res.Evaluated {
			f.q.mu.Lock()
			f.q.fstats.Evaluations++
			f.q.mu.Unlock()
			if !res.DeadEnd && len(it.stages[0].Query.Select) > 0 && !res.Table.Empty() {
				keep, left := wire.TakeRows(*rows, len(res.Table.Rows))
				*rows = left
				if keep > 0 {
					tables = append(tables, wire.NodeTable{
						Node: node, Stage: it.base,
						Cols: res.Table.Cols, Rows: res.Table.Rows[:keep],
						// Env identifies the contribution for the aggregate
						// fold, exactly as the servers stamp it.
						Env: wire.EnvKey(it.env),
					})
				}
			}
		}
		// A spent hop quota stops forwarding; the stage advance below stays
		// at this node (no hop), so it is still allowed.
		if c.Budget.Hops >= 0 {
			for _, fw := range res.Continue {
				update.Children = append(update.Children,
					f.addTargets(outs, order, fw, it.stages, it.base, it.env, c)...)
			}
		}
		if res.Advance {
			work = append(work, item{it.stages[1].PRE, it.stages[1:], it.base + 1,
				nodeproc.ExtendEnv(it.env, it.stages[0], db)})
		}
	}
	return update, tables
}

// addTargets batches continuation targets per (site, state), with the
// user-site as the origin of the new CHT entries.
func (f *fallback) addTargets(outs map[string]*wire.CloneMsg, order *[]string, fw nodeproc.Forward, stages []disql.Stage, base int, env map[string]string, c *wire.CloneMsg) []wire.CHTEntry {
	state := wire.State{NumQ: len(stages), Rem: fw.Rem.String()}
	var children []wire.CHTEntry
	for _, tgt := range fw.Targets {
		site := webgraph.Host(tgt.URL)
		key := site + "§" + state.Key() + "§" + wire.EnvKey(env)
		oc := outs[key]
		if oc == nil {
			oc = &wire.CloneMsg{
				ID:     c.ID,
				Rem:    fw.Rem.String(),
				Base:   base,
				Stages: nodeproc.EncodeStages(stages),
				Hops:   c.Hops + 1,
				Env:    env,
				// A child keeps the query's budget, one hop spent (process
				// fills in the row quota left), so enforcement continues
				// wherever the child lands. The plan fragment rejoins too
				// — the next participating site resumes pushdown.
				Budget: c.Budget.Spend(),
				Frag:   c.Frag,
			}
			if f.q.journal != nil || !c.Span.IsZero() {
				oc.Span = wire.SpanID{Origin: f.q.id.Site, Seq: f.q.spanSeq.Add(1)}
				oc.Parent = c.Span
			}
			outs[key] = oc
			*order = append(*order, key)
		}
		dup := false
		for _, d := range oc.Dest {
			if d.URL == tgt.URL {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		dest := wire.DestNode{URL: tgt.URL, Origin: f.q.id.Site, Seq: f.seq.Add(1)}
		oc.Dest = append(oc.Dest, dest)
		children = append(children, wire.CHTEntry{
			Node: tgt.URL, State: state, Origin: dest.Origin, Seq: dest.Seq,
		})
	}
	return children
}

// forward hands a continuation clone to its site's query server when it
// participates, otherwise keeps it on the local fallback queue.
func (f *fallback) forward(oc *wire.CloneMsg) {
	site := webgraph.Host(oc.Dest[0].URL)
	f.q.jot(oc, trace.Forward, site)
	err := f.q.sendSite(site, oc)
	if err == nil {
		f.q.mu.Lock()
		f.q.fstats.Rejoined++
		f.q.mu.Unlock()
		return
	}
	f.enqueue(oc)
}

// retireAll retires the entries of a clone that will not be processed —
// malformed, or (expired) past its budget's deadline, the typed EXPIRED
// retirement.
func (f *fallback) retireAll(c *wire.CloneMsg, expired bool) {
	st := c.State()
	updates := make([]wire.CHTUpdate, 0, len(c.Dest))
	for _, dest := range c.Dest {
		updates = append(updates, wire.CHTUpdate{Processed: wire.CHTEntry{
			Node: dest.URL, State: st, Origin: dest.Origin, Seq: dest.Seq,
		}})
	}
	f.q.merge(&wire.ResultMsg{ID: c.ID, Updates: updates, Expired: expired})
}
