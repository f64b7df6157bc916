package nodeproc

import (
	"errors"
	"fmt"
	"slices"

	"webdis/internal/disql"
	"webdis/internal/plan"
	"webdis/internal/pre"
	"webdis/internal/wire"
)

// Every clone of a web-query that reaches a site carries the same stages
// (Section 2.7, Figure 3), so a query-processor worker compiles them once:
// the parsed stages, one plan per stage, the traversal states the clones
// arrive in, their derivatives and the log rule's judgements between
// them. A compiled query holds per-node operator state in its plans, so
// it belongs to one worker's Batch; it is never shared between goroutines
// and needs no lock.
const (
	// maxCompiled bounds the queries a worker keeps compiled; the oldest
	// is evicted first.
	maxCompiled = 16
	// maxStates bounds the traversal states of one compiled query. A
	// state past it is stepped uncached, deriving afresh at every visit.
	maxStates = 64
)

// compiled is one web-query's remaining stages, compiled at one worker.
type compiled struct {
	// wire is the stage list as first received: the cache key, and what
	// outgoing clones carry (a suffix of it), so nothing re-encodes it.
	// Nothing may write into it.
	wire   []wire.StageMsg
	stages []disql.Stage
	trees  []*plan.Tree // per stage, compiled by its first evaluation
	heads  []*state     // per stage, the state of its whole PRE
	states map[string]*state
	// covers memoises the log rule by (logged, arriving) pair of states
	// in states: a repeat comparison is one lookup.
	covers map[[2]*state]cover
}

// state is one traversal state of a stage: its remaining PRE, the PRE's
// text (the CHT's and the wire's name for it), whether the node-query
// runs in it, and — once derived — the derivative of every live link.
type state struct {
	rem      pre.Expr
	text     string
	nullable bool
	derived  bool
	next     []edge
}

// edge is one live link of a state and the state it derives.
type edge struct {
	link pre.Link
	to   *state
}

// newCompiled compiles nothing yet: trees, heads and states fill in as
// the clones of the query need them.
func newCompiled(ws []wire.StageMsg, stages []disql.Stage) *compiled {
	return &compiled{
		wire: ws, stages: stages,
		trees: make([]*plan.Tree, len(stages)), heads: make([]*state, len(stages)),
	}
}

// transient is a state kept in no table: its derivatives are computed at
// every step. Arrivals a table does not hold (a state past maxStates, one
// Step is given) step in one.
func transient(rem pre.Expr) *state {
	return &state{rem: rem, nullable: pre.Nullable(rem)}
}

// stage returns the index in q of the first of the remaining stages ss,
// a suffix of q.stages.
func (q *compiled) stage(ss []disql.Stage) int { return len(q.stages) - len(ss) }

// tree returns stage i's compiled node-query, compiling it at the first
// evaluation that needs it. It is the one place nodeproc plans a
// node-query: every node of every clone the worker sees reuses the tree.
// A compile error is not kept; the next evaluation tries again.
func (q *compiled) tree(i int) (*plan.Tree, error) {
	if q.trees[i] == nil {
		t, err := plan.Compile(q.stages[i].Query)
		if err != nil {
			return nil, err
		}
		q.trees[i] = t
	}
	return q.trees[i], nil
}

// state returns the table's state for e, adding it if there is room, or
// else a transient one named by its text.
func (q *compiled) state(e pre.Expr) *state {
	text := e.String()
	if st := q.states[text]; st != nil {
		return st
	}
	st := transient(e)
	st.text = text
	if len(q.states) < maxStates {
		if q.states == nil {
			q.states = make(map[string]*state)
		}
		q.states[text] = st
	}
	return st
}

// held reports whether st is one of the table's states.
func (q *compiled) held(st *state) bool { return st.text != "" && q.states[st.text] == st }

// head returns the state in which stage i starts: its whole PRE.
func (q *compiled) head(i int) *state {
	if q.heads[i] == nil {
		q.heads[i] = q.state(q.stages[i].PRE)
	}
	return q.heads[i]
}

// edges returns st's live links and their derivatives: the links of
// pre.First whose derivative is not ∅, in First's order. A state of q's
// table derives once and keeps the edges; any other derives afresh.
func (q *compiled) edges(st *state) []edge {
	if st.derived {
		return st.next
	}
	var next []edge
	keep := q.held(st)
	for _, l := range pre.First(st.rem) {
		d := pre.Derive(st.rem, l)
		if pre.IsNone(d) {
			continue
		}
		to := q.state(d)
		keep = keep && q.held(to)
		next = append(next, edge{link: l, to: to})
	}
	if keep {
		st.next, st.derived = next, true
	}
	return next
}

// cover is what one logged state covers of one arriving state.
type cover struct {
	pruned parts // the arrival's work the logged state did
	within bool  // the arrival covers all of the logged state's work
}

// cover judges logged state e against arriving state t: e did t's
// evaluation if both are nullable and both route on or neither does, and
// t's forward over l if e's derivative over l covers t's. A pair of
// table states is judged once.
func (q *compiled) cover(e, t *state) cover {
	k := [2]*state{e, t}
	if c, ok := q.covers[k]; ok {
		return c
	}
	var c cover
	alike := q.routes(e) == q.routes(t)
	if e.nullable && t.nullable && alike {
		c.pruned |= evalPart
	}
	for _, te := range q.edges(t) {
		if ee, ok := q.next(e, te.link); ok && q.contains(ee, te.to) {
			c.pruned |= linkPart(te.link)
		}
	}
	c.within = (!e.nullable || alike) && q.contains(t, e)
	if q.held(e) && q.held(t) {
		if q.covers == nil {
			q.covers = make(map[[2]*state]cover)
		}
		q.covers[k] = c
	}
	return c
}

// routes reports whether st goes on over some link: false for a state
// whose language is the empty path alone, a pure evaluation.
func (q *compiled) routes(st *state) bool { return len(q.edges(st)) > 0 }

// next is st's successor over l; false when st cannot follow l.
func (q *compiled) next(st *state, l pre.Link) (*state, bool) {
	for _, e := range q.edges(st) {
		if e.link == l {
			return e.to, true
		}
	}
	return nil, false
}

// contains is pre.Covers over the table's states, whose derivatives the
// table keeps: a walk derives only the states it meets first. A walk
// too long for pre's bound answers false.
func (q *compiled) contains(super, sub *state) bool {
	ok, err := pre.CoversBy(super, sub, func(st *state) string { return st.text }, func(st *state) bool { return st.nullable }, q.next)
	return ok && err == nil
}

// judge applies the log rule to an arrival in state t against the
// states logged at its key (LogTable) and returns, compacted in place,
// the entries whose languages are not within t's, each now q's own
// state. The caller holds the table's lock; another worker's state is
// only read for its text and PRE, which never change.
func (q *compiled) judge(entries []any, t *state) (v Verdict, kept []any) {
	var want parts
	if t.nullable {
		want = evalPart
	}
	for _, e := range q.edges(t) {
		want |= linkPart(e.link)
	}
	kept = entries[:0]
	for _, e := range entries {
		var es *state
		switch e := e.(type) {
		case *state:
			if es = q.states[e.text]; es == nil {
				es = q.state(e.rem)
			}
		case pre.Expr:
			es = q.state(e)
		}
		c := q.cover(es, t)
		v.pruned |= c.pruned & want
		if !c.within {
			kept = append(kept, es)
		}
	}
	switch {
	case v.pruned == want:
		v.Action = Drop
	case v.pruned != 0:
		v.Action = Rewrite
	}
	return v, kept
}

// rewritten is what an arrival in state st explores once pruned is
// taken away, as a PRE: L*4·G with its G-forward pruned reads L·L*3·G,
// the paper's rewrite.
func (q *compiled) rewritten(st *state, pruned parts) pre.Expr {
	var alts []pre.Expr
	if st.nullable && pruned&evalPart == 0 {
		alts = append(alts, pre.Eps())
	}
	for _, e := range q.edges(st) {
		if pruned&linkPart(e.link) == 0 {
			alts = append(alts, pre.Cat(pre.Sym(e.link), e.to.rem))
		}
	}
	return pre.Alt(alts...)
}

// queryCache is one worker's compiled queries, oldest first. The zero
// value is empty and allocates nothing until the first clone.
type queryCache struct {
	entries []*compiled
}

// resolve finds or compiles the query of clone c and the state c arrives
// in (compiled.state). hits counts the clone's PREs (its stages' and its
// own) the cache served. A malformed clone is an error and leaves the
// cache as it was.
func (qc *queryCache) resolve(c *wire.CloneMsg) (q *compiled, st *state, hits int, err error) {
	q = qc.lookup(c.Stages)
	fresh := q == nil
	if fresh {
		stages, _, err := ParseStagesCached(c.Stages)
		if err != nil {
			return nil, nil, 0, err
		}
		if len(stages) == 0 {
			return nil, nil, 0, errors.New("nodeproc: clone carries no stages")
		}
		q = newCompiled(c.Stages, stages)
	} else {
		hits = len(q.stages)
	}
	if st = q.states[c.Rem]; st != nil {
		hits++
	} else {
		rem, _, err := pre.ParseCached(c.Rem)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("nodeproc: clone state: %w", err)
		}
		st = q.state(rem)
	}
	if fresh {
		if len(qc.entries) == maxCompiled {
			qc.entries = slices.Delete(qc.entries, 0, 1)
		}
		qc.entries = append(qc.entries, q)
	}
	return q, st, hits, nil
}

// lookup returns the compiled query whose stage list equals ss, or nil.
// It never looks at the clone's QueryID: two queries with the same
// stages share one compiled form.
func (qc *queryCache) lookup(ss []wire.StageMsg) *compiled {
	for i := len(qc.entries) - 1; i >= 0; i-- {
		if q := qc.entries[i]; sameStages(q.wire, ss) {
			return q
		}
	}
	return nil
}

// sameStages reports whether two wire stage lists are structurally equal:
// PRE text, node-query and exports, stage for stage.
func sameStages(a, b []wire.StageMsg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.PRE != y.PRE || !slices.Equal(x.Export, y.Export) || x.Query != y.Query && !x.Query.Equal(y.Query) {
			return false
		}
	}
	return true
}
