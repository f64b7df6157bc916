// Continuous queries at the user-site: a Watch is a standing web-query
// whose result set is maintained incrementally as the web mutates
// underneath it.
//
// The mechanism has three parts. First, the initial run records its raw
// result flow — every reported node table and every parent→child CHT
// edge — in a recording, giving the user-site a per-node view of where
// each row came from and how the traversal DAG is wired. Second, the
// watch registers itself (wire.WatchMsg) at every participating site;
// when the web mutates, the touched sites push typed change
// notifications (wire.DeltaMsg) naming the documents whose content was
// edited and those whose link structure was rewired. Third, the watch
// folds one notification per epoch into the standing state with a
// two-phase delete-and-rederive:
//
//   - Phase A (content-only edits): nodes whose content changed but whose
//     links did not are re-evaluated in place with a hop-exhausted budget
//     (Budget.Hops = -1), which evaluates the node-queries and reports
//     tables but forwards nothing. If a node's set of answered stages is
//     unchanged, its traversal behaviour is unchanged too (a stage
//     advance happens exactly when its answer is non-empty), so swapping
//     the node's contributions suffices. A node whose answered-stage set
//     flipped is promoted to phase B — its advances, and therefore its
//     descendants, changed.
//   - Phase B (structural changes): the affected set is the node-level
//     closure of the rewired (and promoted) documents over the recorded
//     edge DAG. All of its contributions and outgoing edges are deleted;
//     the surviving arrivals at its boundary (edges from unaffected
//     parents, including the user-site's own root dispatches) are
//     re-dispatched as mid-traversal roots with their recorded states.
//     This over-delete/re-derive is sound because the closure is closed
//     under the recorded edges: every edge out of an affected node lands
//     on an affected node, so nothing outside the set depends on a
//     deleted derivation.
//
// After both phases the per-stage global row sets are recomputed and
// diffed against the previous epoch's, emitting typed add/remove Deltas
// with a monotonic epoch number — one epoch per notification processed,
// so WaitEpoch gives exact barriers to a driver that knows how many
// notifications its mutation batch produced.
package client

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync"

	"webdis/internal/disql"
	"webdis/internal/server"
	"webdis/internal/trace"
	"webdis/internal/wire"
)

// Typed watch failures, matchable with errors.Is.
var (
	// ErrWatchOutput rejects standing queries with an output contract:
	// aggregates fold contributions destructively at the user-site, so
	// their result sets cannot be maintained by row-level deltas.
	ErrWatchOutput = errors.New("client: watch does not support grouped/ordered queries")
	// ErrWatchCorrelated rejects standing queries with correlated stages:
	// a recorded CHT edge carries no clone environment, so a correlated
	// re-dispatch could not reconstruct the outer bindings.
	ErrWatchCorrelated = errors.New("client: watch does not support correlated queries")
	// ErrWatchClosed is returned by waiters when the watch is closed.
	ErrWatchClosed = errors.New("client: watch closed")
)

// DeltaOp types one incremental result change.
type DeltaOp int

const (
	// DeltaRemove retracts a row the standing result set no longer
	// derives. Removes sort before adds within an epoch, so a changed
	// row reads retract-then-assert.
	DeltaRemove DeltaOp = iota
	// DeltaAdd asserts a newly derived row.
	DeltaAdd
)

func (op DeltaOp) String() string {
	if op == DeltaAdd {
		return "add"
	}
	return "remove"
}

// Delta is one typed change to a watch's standing result set.
type Delta struct {
	// Epoch is the watch's monotonic re-evaluation counter: every site
	// notification processed advances it by one, whether or not any row
	// changed.
	Epoch int
	Op    DeltaOp
	// Stage indexes the node-query the row answers, as in ResultTable.
	Stage int
	Row   []string
}

// recording captures a query's raw result flow for the continuous-query
// layer: every node table as reported (before the user-site's global
// row dedup) and every parent→child CHT edge (the traversal DAG).
// Appends happen under the owning Query's mu, inside merge.
type recording struct {
	tables []wire.NodeTable
	edges  []recEdge
}

// recEdge is one edge of the recorded traversal DAG: the processed
// parent node forwarded a clone that entered child. Parent "" marks the
// user-site's own root dispatches.
type recEdge struct {
	parent string
	child  wire.CHTEntry
}

// fold absorbs one result frame. Callers hold the owning Query's mu.
func (rec *recording) fold(r *wire.ResultMsg) {
	rec.tables = append(rec.tables, r.Tables...)
	for _, u := range r.Updates {
		for _, child := range u.Children {
			rec.edges = append(rec.edges, recEdge{parent: u.Processed.Node, child: child})
		}
	}
}

// watchEdge is the standing, deduplicated form of a recorded edge.
type watchEdge struct {
	parent string
	node   string
	state  wire.State
}

func watchEdgeKey(parent, node string, st wire.State) string {
	return parent + "\x01" + node + "\x01" + st.Key()
}

// contribSet is a node's standing contributions: stage → row key → row.
type contribSet map[int]map[string][]string

// Watch is a standing web-query: it holds the query's current result
// set, receives site change notifications on the client's collector
// endpoint (routed by the watch's id), incrementally re-derives only the
// affected part of the traversal, and emits typed row deltas. Create with
// Client.Watch, consume with Deltas, Stream or Results, release with Close.
type Watch struct {
	c      *Client
	web    *disql.WebQuery
	wid    wire.QueryID
	sites  []string // sites a WatchMsg registration reached
	budget wire.Budget
	// extDone mirrors Options.Done, bounding Stream pumps exactly as in
	// Query.
	extDone <-chan struct{}
	// conservative is set when some stage's answer presence is not
	// observable from reported tables (a node-query with no select
	// list): content edits are then treated as structural, trading
	// delta-efficiency for exactness.
	conservative bool
	journal      *trace.Journal

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*wire.DeltaMsg
	closed bool
	err    error

	// Standing derivation state: per-node contributions, the deduplicated
	// traversal DAG, per-stage column headers, and the per-stage global
	// row sets of the last epoch.
	contribs map[string]contribSet
	edges    map[string]watchEdge
	cols     map[int][]string
	cur      map[int]map[string][]string

	epoch  int
	log    []Delta
	doneCh chan struct{} // closed when the epoch loop exits
}

// Watch submits w as a standing query and registers for change
// notifications at the given sites (every site the traversal may reach;
// typically the whole deployment). It blocks until the initial run
// completes — the watch's epoch-0 result set — and then maintains the
// result set incrementally. Queries with an output contract or with
// correlated stages are rejected with a typed error.
//
// On replicated sites the registration reaches the primary endpoint
// only; mutations applied through a deployment notify every replica's
// server, so single-registration delivery stays exact there.
//
// ctx bounds the initial run and, when cancellable, the watch itself:
// a ctx that ends closes the watch.
func (c *Client) Watch(ctx context.Context, w *disql.WebQuery, sites []string) (*Watch, error) {
	return c.WatchBudget(ctx, w, sites, wire.Budget{})
}

// WatchBudget is Watch with a resource budget applied to the initial
// run. Incremental re-runs always ship as low-weight flows
// (Budget.Weight 1) so standing maintenance yields to interactive
// queries under a site's weighted fair scheduler; a budget that clips
// the initial run (hops, rows, deadline) would make the standing set
// clipped too, so quotas are intentionally not inherited by re-runs.
func (c *Client) WatchBudget(ctx context.Context, w *disql.WebQuery, sites []string, b wire.Budget) (*Watch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if w.Output != nil {
		return nil, ErrWatchOutput
	}
	conservative := false
	for _, st := range w.Stages {
		if st.Query != nil && len(st.Query.Outer) > 0 {
			return nil, ErrWatchCorrelated
		}
		if st.Query != nil && len(st.Query.Select) == 0 {
			conservative = true
		}
	}

	wa := &Watch{
		c:            c,
		web:          w,
		budget:       b,
		extDone:      c.opts.Done,
		conservative: conservative,
		journal:      c.opts.Journal,
		contribs:     make(map[string]contribSet),
		edges:        make(map[string]watchEdge),
		cols:         make(map[int][]string),
		cur:          make(map[int]map[string][]string),
		doneCh:       make(chan struct{}),
	}
	wa.cond = sync.NewCond(&wa.mu)

	err := c.attach(func(id wire.QueryID) {
		wa.wid = id
		c.watches[id.Num] = wa
	})
	if err != nil {
		return nil, err
	}

	// Register before the initial run: a mutation landing between the
	// two produces a queued notification whose re-derivation is
	// idempotent against the state the run already saw.
	reg := &wire.WatchMsg{Version: wire.WatchVersion, ID: wa.wid}
	ordered := append([]string(nil), sites...)
	sort.Strings(ordered)
	for _, site := range ordered {
		if c.send(server.Endpoint(site), reg) == nil {
			wa.sites = append(wa.sites, site)
		}
	}

	rec := &recording{}
	q, err := c.submit(w, b, rec)
	if err != nil {
		wa.teardown()
		return nil, err
	}
	if err := q.WaitContext(ctx); err != nil {
		wa.teardown()
		return nil, err
	}
	if err := q.Err(); err != nil {
		// A degraded baseline (shed, partial, expired) would seed an
		// unsound standing set that every later delta inherits.
		wa.teardown()
		return nil, fmt.Errorf("client: watch baseline degraded: %w", err)
	}
	wa.mu.Lock()
	wa.absorb(rec)
	wa.cur = wa.globalRows()
	wa.mu.Unlock()

	go wa.loop()
	if wa.extDone != nil || ctx.Done() != nil {
		go func() {
			select {
			case <-wa.doneCh:
			case <-wa.extDone:
				wa.Close()
			case <-ctx.Done():
				wa.Close()
			}
		}()
	}
	return wa, nil
}

// notify queues one site notification for the epoch loop. The client's
// collector calls it for every applicable DeltaMsg carrying this watch's
// id.
func (w *Watch) notify(m *wire.DeltaMsg) {
	if w.journal != nil {
		w.journal.Append(trace.Event{
			Query: w.wid.String(), Kind: trace.Delta,
			Detail: fmt.Sprintf("from %s: %d edited, %d rewired", m.Site, len(m.Edited), len(m.Rewired)),
		})
	}
	w.mu.Lock()
	if !w.closed {
		w.queue = append(w.queue, m)
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// loop drains the notification queue, one epoch per message.
func (w *Watch) loop() {
	defer close(w.doneCh)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			w.mu.Unlock()
			return
		}
		msg := w.queue[0]
		w.queue = w.queue[1:]
		w.mu.Unlock()
		if err := w.step(msg); err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.cond.Broadcast()
			w.mu.Unlock()
			return
		}
	}
}

// step folds one site notification into the standing state: phase-A
// in-place re-evaluation of content-only edits, phase-B structural
// re-derivation of the affected closure, then the epoch diff.
func (w *Watch) step(msg *wire.DeltaMsg) error {
	edited := append([]string(nil), msg.Edited...)
	rewired := append([]string(nil), msg.Rewired...)
	if w.conservative {
		rewired = append(rewired, edited...)
		edited = nil
	}

	w.mu.Lock()
	children, arrivals := w.dag()
	affected := closure(rewired, children)
	var editedOnly []string
	seen := make(map[string]bool)
	for _, n := range edited {
		if !affected[n] && len(arrivals[n]) > 0 && !seen[n] {
			seen[n] = true
			editedOnly = append(editedOnly, n)
		}
	}
	sort.Strings(editedOnly)
	w.mu.Unlock()

	// Phase A: hop-exhausted re-evaluation of content-only edits. The
	// budget's spent hop quota lets the node answer (and virtually
	// advance stages in place) while forwarding nothing, so the
	// traversal DAG is untouched by construction.
	var promoted []string
	if len(editedOnly) > 0 {
		var roots []wire.CHTEntry
		w.mu.Lock()
		for _, n := range editedOnly {
			for _, st := range arrivals[n] {
				roots = append(roots, wire.CHTEntry{Node: n, State: st})
			}
		}
		w.mu.Unlock()
		rec, err := w.rerun(roots, wire.Budget{Hops: -1, Weight: 1})
		if err != nil {
			return err
		}
		fresh := tablesByNode(rec.tables)
		w.mu.Lock()
		for _, t := range rec.tables {
			if _, ok := w.cols[t.Stage]; !ok {
				w.cols[t.Stage] = t.Cols
			}
		}
		for _, n := range editedOnly {
			if !sameStages(w.contribs[n], fresh[n]) {
				// The edit flipped some stage's answer between empty and
				// non-empty: the node's advances — and so its descendants —
				// changed. Structural re-derivation takes over; the
				// in-place result is discarded.
				promoted = append(promoted, n)
				continue
			}
			if cs := fresh[n]; len(cs) > 0 {
				w.contribs[n] = cs
			} else {
				delete(w.contribs, n)
			}
		}
		w.mu.Unlock()
	}

	// Phase B: over-delete the affected closure and re-derive it from
	// the surviving boundary arrivals.
	w.mu.Lock()
	affected = closure(append(rewired, promoted...), children)
	var roots []wire.CHTEntry
	if len(affected) > 0 {
		rootSeen := make(map[string]bool)
		for _, e := range w.edges {
			if affected[e.node] && !affected[e.parent] {
				rk := e.node + "\x01" + e.state.Key()
				if !rootSeen[rk] {
					rootSeen[rk] = true
					roots = append(roots, wire.CHTEntry{Node: e.node, State: e.state})
				}
			}
		}
		sort.Slice(roots, func(i, j int) bool {
			if roots[i].Node != roots[j].Node {
				return roots[i].Node < roots[j].Node
			}
			return roots[i].State.Key() < roots[j].State.Key()
		})
		for n := range affected {
			delete(w.contribs, n)
		}
		for k, e := range w.edges {
			if affected[e.parent] {
				delete(w.edges, k)
			}
		}
	}
	w.mu.Unlock()
	if len(roots) > 0 {
		rec, err := w.rerun(roots, wire.Budget{Weight: 1})
		if err != nil {
			return err
		}
		w.mu.Lock()
		w.absorb(rec)
		w.mu.Unlock()
	}

	// The epoch advances even when nothing changed, so a driver that
	// counts notifications gets exact WaitEpoch barriers.
	w.mu.Lock()
	next := w.globalRows()
	w.log = append(w.log, diffRows(w.cur, next, w.epoch+1)...)
	w.cur = next
	w.epoch++
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}

// rerun dispatches a recorded sub-traversal and waits it out. A
// degraded completion (partial, shed, expired) is an error: an
// incomplete re-derivation would silently corrupt the standing set.
func (w *Watch) rerun(roots []wire.CHTEntry, b wire.Budget) (*recording, error) {
	rec := &recording{}
	q, err := w.c.submitRoots(w.web, roots, b, rec)
	if err != nil {
		return nil, err
	}
	if err := q.Wait(0); err != nil {
		return nil, err
	}
	if err := q.Err(); err != nil && !errors.Is(err, ErrExpired) {
		// ErrExpired is expected under the phase-A hop clamp — the spent
		// quota is the mechanism, not a failure.
		return nil, fmt.Errorf("client: watch re-derivation degraded: %w", err)
	}
	return rec, nil
}

// dag projects the standing edge set into node-level adjacency and the
// distinct recorded arrival states per node. Callers hold w.mu.
func (w *Watch) dag() (children map[string][]string, arrivals map[string][]wire.State) {
	children = make(map[string][]string)
	arrivals = make(map[string][]wire.State)
	seen := make(map[string]bool)
	for _, e := range w.edges {
		children[e.parent] = append(children[e.parent], e.node)
		ak := e.node + "\x01" + e.state.Key()
		if !seen[ak] {
			seen[ak] = true
			arrivals[e.node] = append(arrivals[e.node], e.state)
		}
	}
	for n := range arrivals {
		sort.Slice(arrivals[n], func(i, j int) bool {
			return arrivals[n][i].Key() < arrivals[n][j].Key()
		})
	}
	return children, arrivals
}

// closure returns the node-level descendant closure of seeds.
func closure(seeds []string, children map[string][]string) map[string]bool {
	out := make(map[string]bool)
	queue := append([]string(nil), seeds...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if out[n] {
			continue
		}
		out[n] = true
		queue = append(queue, children[n]...)
	}
	return out
}

// absorb unions a recording into the standing state. Callers hold w.mu.
func (w *Watch) absorb(rec *recording) {
	for _, t := range rec.tables {
		if _, ok := w.cols[t.Stage]; !ok {
			w.cols[t.Stage] = t.Cols
		}
		cs := w.contribs[t.Node]
		if cs == nil {
			cs = make(contribSet)
			w.contribs[t.Node] = cs
		}
		rows := cs[t.Stage]
		if rows == nil {
			rows = make(map[string][]string)
			cs[t.Stage] = rows
		}
		for _, row := range t.Rows {
			rows[rowKey(row)] = row
		}
	}
	for _, e := range rec.edges {
		k := watchEdgeKey(e.parent, e.child.Node, e.child.State)
		w.edges[k] = watchEdge{parent: e.parent, node: e.child.Node, state: e.child.State}
	}
}

// tablesByNode groups reported tables into per-node contributions.
func tablesByNode(tabs []wire.NodeTable) map[string]contribSet {
	out := make(map[string]contribSet)
	for _, t := range tabs {
		cs := out[t.Node]
		if cs == nil {
			cs = make(contribSet)
			out[t.Node] = cs
		}
		rows := cs[t.Stage]
		if rows == nil {
			rows = make(map[string][]string)
			cs[t.Stage] = rows
		}
		for _, row := range t.Rows {
			rows[rowKey(row)] = row
		}
	}
	return out
}

// sameStages reports whether two contribution sets answer the same
// stages (row contents may differ). Stage answers are
// arrival-independent for uncorrelated queries, so an equal stage set
// means equal advance behaviour.
func sameStages(a, b contribSet) bool {
	for st, rows := range a {
		if len(rows) > 0 && len(b[st]) == 0 {
			return false
		}
	}
	for st, rows := range b {
		if len(rows) > 0 && len(a[st]) == 0 {
			return false
		}
	}
	return true
}

// globalRows unions the per-node contributions into per-stage row sets.
// Callers hold w.mu.
func (w *Watch) globalRows() map[int]map[string][]string {
	out := make(map[int]map[string][]string)
	for _, cs := range w.contribs {
		for st, rows := range cs {
			g := out[st]
			if g == nil {
				g = make(map[string][]string)
				out[st] = g
			}
			for k, row := range rows {
				g[k] = row
			}
		}
	}
	for st, g := range out {
		if len(g) == 0 {
			delete(out, st)
		}
	}
	return out
}

// diffRows computes the sorted delta list between two epoch row sets:
// stages ascending, removes before adds, rows in key order.
func diffRows(old, next map[int]map[string][]string, epoch int) []Delta {
	stageSet := make(map[int]bool)
	for st := range old {
		stageSet[st] = true
	}
	for st := range next {
		stageSet[st] = true
	}
	stages := make([]int, 0, len(stageSet))
	for st := range stageSet {
		stages = append(stages, st)
	}
	sort.Ints(stages)
	var out []Delta
	for _, st := range stages {
		o, n := old[st], next[st]
		var removed, added []string
		for k := range o {
			if _, ok := n[k]; !ok {
				removed = append(removed, k)
			}
		}
		for k := range n {
			if _, ok := o[k]; !ok {
				added = append(added, k)
			}
		}
		sort.Strings(removed)
		sort.Strings(added)
		for _, k := range removed {
			out = append(out, Delta{Epoch: epoch, Op: DeltaRemove, Stage: st, Row: o[k]})
		}
		for _, k := range added {
			out = append(out, Delta{Epoch: epoch, Op: DeltaAdd, Stage: st, Row: n[k]})
		}
	}
	return out
}

// ID returns the watch's global identifier: notifications go to the
// client's collector endpoint ID().Site and are routed by ID().Num.
func (w *Watch) ID() wire.QueryID { return w.wid }

// Epoch returns the number of site notifications folded in so far.
func (w *Watch) Epoch() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Err returns the watch's terminal error, if a re-derivation failed.
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// WaitEpoch blocks until at least n notifications have been processed,
// the watch fails or closes, or ctx ends.
func (w *Watch) WaitEpoch(ctx context.Context, n int) error {
	var stop chan struct{}
	if ctx.Done() != nil {
		stop = make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				w.mu.Lock()
				w.cond.Broadcast()
				w.mu.Unlock()
			case <-stop:
			}
		}()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.epoch < n && w.err == nil && !w.closed && ctx.Err() == nil {
		w.cond.Wait()
	}
	switch {
	case w.epoch >= n:
		return nil
	case w.err != nil:
		return w.err
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		return ErrWatchClosed
	}
}

// Deltas returns the watch's change feed as a blocking pull iterator:
// every delta from epoch 1 on, in emission order, then waiting for more
// until the watch closes. A failed re-derivation yields one final
// (zero Delta, error) pair. Breaking out of the range is safe and leaks
// nothing.
func (w *Watch) Deltas() iter.Seq2[Delta, error] {
	return func(yield func(Delta, error) bool) {
		i := 0
		w.mu.Lock()
		for {
			for i < len(w.log) {
				d := w.log[i]
				i++
				w.mu.Unlock()
				if !yield(d, nil) {
					return
				}
				w.mu.Lock()
			}
			if w.err != nil || w.closed {
				err := w.err
				w.mu.Unlock()
				if err != nil {
					yield(Delta{}, err)
				}
				return
			}
			w.cond.Wait()
		}
	}
}

// Stream returns a bounded channel of the watch's deltas from epoch 1
// on — the abandon-safe form of Deltas for select loops. The channel
// closes when the watch closes or fails, or when ctx ends; the pump is
// additionally bounded by the client's Options.Done channel so an
// abandoned consumer cannot outlive the owning deployment.
func (w *Watch) Stream(ctx context.Context) <-chan Delta {
	ch := make(chan Delta, 64)
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-w.extDone:
		case <-stop:
			return
		}
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}()
	go func() {
		defer close(ch)
		defer close(stop)
		i := 0
		for {
			w.mu.Lock()
			for i >= len(w.log) && !w.closed && w.err == nil && ctx.Err() == nil && !w.extClosed() {
				w.cond.Wait()
			}
			if ctx.Err() != nil || w.extClosed() || i >= len(w.log) {
				w.mu.Unlock()
				return
			}
			d := w.log[i]
			i++
			w.mu.Unlock()
			select {
			case ch <- d:
			case <-ctx.Done():
				return
			case <-w.extDone:
				return
			}
		}
	}()
	return ch
}

func (w *Watch) extClosed() bool {
	select {
	case <-w.extDone:
		return true
	default:
		return false
	}
}

// Results returns the standing result set in the same shape and order
// as Query.Results: tables by stage, rows sorted — directly comparable
// against a from-scratch run of the same query.
func (w *Watch) Results() []ResultTable {
	w.mu.Lock()
	defer w.mu.Unlock()
	stages := make([]int, 0, len(w.cur))
	for st := range w.cur {
		stages = append(stages, st)
	}
	sort.Ints(stages)
	out := make([]ResultTable, 0, len(stages))
	for _, st := range stages {
		rows := make([][]string, 0, len(w.cur[st]))
		for _, row := range w.cur[st] {
			rows = append(rows, row)
		}
		sortRows(rows)
		out = append(out, ResultTable{Stage: st, Cols: w.cols[st], Rows: rows})
	}
	return out
}

// Close deregisters the watch at every site it registered with
// (best-effort), takes it out of the client's routing table, and releases
// its goroutines. Idempotent.
func (w *Watch) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	cancel := &wire.WatchMsg{Version: wire.WatchVersion, ID: w.wid, Cancel: true}
	for _, site := range w.sites {
		w.c.send(server.Endpoint(site), cancel) //nolint:errcheck // best-effort deregistration
	}
	w.teardown()
	return nil
}

// teardown closes the watch and stops its notifications being routed.
func (w *Watch) teardown() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.c.mu.Lock()
	delete(w.c.watches, w.wid.Num)
	w.c.mu.Unlock()
}

// submitRoots dispatches a web-query that resumes mid-traversal: each
// root carries a recorded (node, state) arrival rather than starting at
// stage 0. It is the re-derivation primitive of the continuous-query
// layer.
func (c *Client) submitRoots(w *disql.WebQuery, roots []wire.CHTEntry, b wire.Budget, rec *recording) (*Query, error) {
	q, err := c.newQuery(w, b, rec)
	if err != nil {
		return nil, err
	}
	q.dispatchRoots(roots, nil)
	return q, nil
}
