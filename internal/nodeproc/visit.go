package nodeproc

import (
	"errors"
	"strconv"

	"webdis/internal/disql"
	"webdis/internal/nodequery"
	"webdis/internal/plan"
	"webdis/internal/pre"
	"webdis/internal/relmodel"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// Arrival is one clone state reaching one node: the remaining PRE of the
// current stage, the stages left (current first, Base its index in the
// web-query), the upstream document bindings, the links traversed, and
// the wire hop quota (positive remaining, 0 unlimited, negative spent).
type Arrival struct {
	Node     string
	Rem      pre.Expr
	Stages   []disql.Stage
	Base     int
	Env      map[string]string
	Hops     int
	HopQuota int
}

// Counts is the work a Visitor (and a Batch) did, for the caller to book.
type Counts struct {
	Evaluations, Routes, DeadEnds int64
	DupDropped, DupRewritten      int64
	LoadFailed                    int64 // nodes whose document could not be loaded
	Scanned, Emitted              int64 // rows the evaluations read and produced
	Clipped                       int64 // rows cut by the row quota
	HopsClamped                   int64 // visits whose forwards MaxHops suppressed
	BudgetSpent                   int64 // visits and targets a spent hop or clone-spawn quota suppressed
	Targets                       int64 // targets announced as CHT children
	PushdownHits, PushdownBytes   int64 // tables a plan fragment reduced, encoded bytes saved
	ParseHits, ParseMisses        int64 // clone PREs served from / added to the parse cache
}

// Host is what a Visitor needs from its evaluator: the node's virtual
// relations, and where the node's rows and continuation targets go.
type Host interface {
	Load(node string) (*relmodel.DB, error)
	// Rows receives the non-empty answer of stage a.Base at a.Node.
	Rows(a Arrival, tbl *nodequery.Table)
	// Forward receives the targets of one derivative of a's PRE.
	Forward(fw Forward, a Arrival)
}

// Visitor runs the process() algorithm of Figure 4 at one node at a time.
// The query server (through a Batch) and the centralized baseline both
// visit through it.
type Visitor struct {
	Log   *LogTable
	Query wire.QueryID
	// StrictDeadEnds and MaxHops mirror server.Options.
	StrictDeadEnds bool
	MaxHops        int
	// Journal, when set, receives every visit's log-table verdicts,
	// missing documents, evaluations, dead ends and routes, stamped with
	// Clone's span context. Without it no journal string is built.
	Journal *trace.Journal
	Clone   *wire.CloneMsg
	Counts  Counts

	work []Arrival // reused across visits
	// trees holds each stage's compiled node-query, by Arrival.Base,
	// compiled at the first node that evaluates the stage. Every arrival a
	// Visitor sees belongs to one web-query, so one tree serves them all.
	trees []*plan.Tree
}

// Visit processes one arrival: the log-table check (before the document
// is loaded, so a duplicate parses nothing), then Step for the arrival
// and for every stage advance its node-queries allow at the same node —
// each advance a virtual arrival checked against the log table in turn.
func (v *Visitor) Visit(h Host, a Arrival) {
	if !v.check(&a, false) {
		return
	}
	db, err := h.Load(a.Node)
	if err != nil {
		v.Counts.LoadFailed++
		if v.Journal != nil {
			v.note(trace.Missing, &a, err.Error())
		}
		return
	}
	v.work = append(v.work[:0], a)
	for i := 0; i < len(v.work); i++ {
		it := v.work[i]
		if i > 0 && !v.check(&it, true) {
			continue
		}
		res, err := step(db, it.Node, it.Rem, it.Stages[0], v.tree(it.Base), len(it.Stages) > 1, it.Env)
		if err != nil {
			continue
		}
		v.Counts.Scanned += res.Scanned
		v.Counts.Emitted += res.Emitted
		if res.Evaluated {
			v.Counts.Evaluations++
			if res.DeadEnd {
				v.Counts.DeadEnds++
				v.note(trace.DeadEnd, &it, "no answer")
				if v.StrictDeadEnds {
					continue
				}
			} else if v.Journal != nil {
				v.note(trace.Evaluate, &it, "answered q"+strconv.Itoa(it.Base+1))
			}
			if len(it.Stages[0].Query.Select) > 0 && !res.Table.Empty() {
				h.Rows(it, res.Table)
			}
		} else {
			v.Counts.Routes++
			detail := ""
			if i > 0 {
				detail = "virtual" // a stage advance at this node, not a clone arrival
			}
			v.note(trace.Route, &it, detail)
		}
		// Forward unless the hop quota is spent or MaxHops is reached; a
		// clamp is counted when it met something to forward or advance.
		switch {
		case it.HopQuota >= 0 && (v.MaxHops <= 0 || it.Hops < v.MaxHops):
			for _, fw := range res.Continue {
				h.Forward(fw, it)
			}
		case len(res.Continue) == 0 && !res.Advance:
		case it.HopQuota < 0:
			v.Counts.BudgetSpent++
		default:
			v.Counts.HopsClamped++
		}
		if res.Advance {
			// The advance stays at this node (no hop), so a clamp allows it.
			next := it
			next.Rem, next.Stages, next.Base = it.Stages[1].PRE, it.Stages[1:], it.Base+1
			next.Env = ExtendEnv(it.Env, it.Stages[0], db)
			v.work = append(v.work, next)
		}
	}
}

// tree returns the slot of stage base's compiled node-query.
func (v *Visitor) tree(base int) **plan.Tree {
	for len(v.trees) <= base {
		v.trees = append(v.trees, nil)
	}
	return &v.trees[base]
}

// check runs the log-table check for a, rewriting a.Rem on a superset
// arrival. It reports whether a is to be processed.
func (v *Visitor) check(a *Arrival, virtual bool) bool {
	verdict := v.Log.Check(a.Node, v.Query, len(a.Stages), a.Rem, wire.EnvKey(a.Env))
	switch verdict.Action {
	case Drop:
		v.Counts.DupDropped++
		detail := "duplicate arrival"
		if virtual {
			detail = "virtual duplicate"
		}
		v.note(trace.Drop, a, detail)
		return false
	case Rewrite:
		v.Counts.DupRewritten++
		if v.Journal != nil && !virtual {
			v.note(trace.Rewrite, a, a.Rem.String()+" -> "+verdict.Rem.String())
		}
		a.Rem = verdict.Rem
	}
	return true
}

func (v *Visitor) note(kind trace.Kind, a *Arrival, detail string) {
	if v.Journal != nil {
		v.Journal.AppendClone(v.Clone, kind, a.Node, wire.State{NumQ: len(a.Stages), Rem: a.Rem.String()}, detail)
	}
}

// ---------------------------------------------------------------------------
// The clone level: process_query of Figure 3.

// Site is what a Batch needs from the evaluator it runs on: node
// documents, and the numbers of the CHT entries and spans it creates.
type Site interface {
	LoadDB(node string) (*relmodel.DB, error)
	NextSerial(id wire.QueryID) int64
	NextSpan() int64
}

// Evaluator is a query server's clone-processing evaluator, fixed for its
// lifetime.
type Evaluator struct {
	Site Site
	// Origin is stamped on the CHT entries and spans the evaluator creates.
	Origin string
	// Node is the per-node half: Log, the rules and Journal (Query, Clone
	// and Counts are per batch).
	Node Visitor
	// NoBatch gives every target its own clone message instead of one per
	// (site, state, environment); Pushdown applies a clone's plan fragment
	// to its result tables; Spans gives every spawned clone a trace span,
	// not only the children of a clone that carries one.
	NoBatch, Pushdown, Spans bool
}

// Out is one outgoing clone: every target at one site that shares one
// query state and environment (Section 3.2, item 4).
type Out struct {
	Site  string
	Msg   *wire.CloneMsg
	dests map[string]bool
}

// Batch processes one received clone message at a time: it visits every
// destination node and groups the continuation targets into outgoing
// clones that inherit the clone's budget and plan fragment. A Batch is
// the Host of its own Visitor. One goroutine reuses one Batch from
// message to message, so its maps and work list allocate once; the zero
// value is ready for Begin.
type Batch struct {
	e     *Evaluator
	in    *wire.CloneMsg
	v     Visitor
	at    Arrival    // in's arrival at its destinations, Node unset
	state wire.State // the CHT state of that arrival
	seen  map[string]bool
	outs  map[string]*Out
	// clones and rows are what is left of the clone-spawn and row quotas.
	clones, rows int

	Out     []*Out // outgoing clones, in creation order
	Updates []wire.CHTUpdate
	Tables  []wire.NodeTable
}

// Begin starts processing clone c on e. The stages and arrival PRE go
// through the shared parse cache, so a steady-state arrival — including
// one about to be dropped as a duplicate — parses nothing. A malformed
// clone is an error.
func (b *Batch) Begin(e *Evaluator, c *wire.CloneMsg) error {
	b.Reset()
	stages, hits, err := ParseStagesCached(c.Stages)
	if err != nil {
		return err
	}
	rem, hit, err := pre.ParseCached(c.Rem)
	if err != nil {
		return err
	}
	if len(stages) == 0 {
		return errors.New("nodeproc: clone carries no stages")
	}
	if b.seen == nil {
		b.seen, b.outs = make(map[string]bool), make(map[string]*Out)
	}
	work, trees := b.v.work, b.v.trees
	b.e, b.in, b.v = e, c, e.Node
	b.v.Query, b.v.Clone, b.v.work, b.v.trees = c.ID, c, work, trees
	b.at = Arrival{Rem: rem, Stages: stages, Base: c.Base, Env: c.Env, Hops: c.Hops, HopQuota: c.Budget.Hops}
	b.state = wire.State{NumQ: len(stages), Rem: rem.String()}
	b.clones, b.rows = c.Budget.Clones, c.Budget.Rows
	if hit {
		hits++
	}
	b.v.Counts.ParseHits = int64(hits)
	b.v.Counts.ParseMisses = int64(len(stages) + 1 - hits)
	return nil
}

// Reset drops what the last message left — the clone, its compiled
// node-queries, its rows, its outgoing clones — and keeps the maps and
// slices for the next Begin. Updates and Tables are not reused: they
// leave in the result frame the caller builds from them.
func (b *Batch) Reset() {
	work := b.v.work[:cap(b.v.work)]
	clear(work)
	clear(b.v.trees)
	clear(b.seen)
	clear(b.outs)
	clear(b.Out)
	*b = Batch{seen: b.seen, outs: b.outs, Out: b.Out[:0], v: Visitor{work: work[:0], trees: b.v.trees[:0]}}
}

// Add visits one destination of the clone and records its CHT update; a
// destination listed twice is visited once.
func (b *Batch) Add(dest wire.DestNode) {
	if b.seen[dest.URL] {
		return
	}
	b.seen[dest.URL] = true
	b.Updates = append(b.Updates, wire.CHTUpdate{Processed: wire.CHTEntry{
		Node: dest.URL, State: b.state, Origin: dest.Origin, Seq: dest.Seq,
	}})
	a := b.at
	a.Node = dest.URL
	b.v.Visit(b, a)
}

// Finish hands the outgoing clones what is left of the budget — one hop
// spent, the row quota as it now stands, the clone-spawn quota divided
// among them — and returns the counts to book.
func (b *Batch) Finish() Counts {
	if !b.in.Budget.IsZero() {
		child := b.in.Budget.Spend()
		child.Rows = b.rows
		for i, oc := range b.Out {
			oc.Msg.Budget = child
			oc.Msg.Budget.Clones = divideQuota(b.clones, len(b.Out), i)
		}
	}
	return b.v.Counts
}

// Load implements Host.
func (b *Batch) Load(node string) (*relmodel.DB, error) { return b.e.Site.LoadDB(node) }

// Rows implements Host: the row quota keeps what remains and clips the
// rest, and the clone's plan fragment reduces the table.
func (b *Batch) Rows(a Arrival, tbl *nodequery.Table) {
	rows := tbl.Rows
	if b.rows != 0 {
		keep, left := wire.TakeRows(b.rows, len(rows))
		b.v.Counts.Clipped += int64(len(rows) - keep)
		rows, b.rows = rows[:keep], left
	}
	if len(rows) == 0 {
		return
	}
	// Env identifies the contribution for the user-site's aggregate fold;
	// stamped always so grouped queries work without pushdown.
	nt := wire.NodeTable{Node: a.Node, Stage: a.Base, Cols: tbl.Cols, Rows: rows, Env: wire.EnvKey(a.Env)}
	if frag := b.in.Frag; b.e.Pushdown && frag.Applies(a.Base) {
		// Partial aggregation for grouped specs, per-node top-K for
		// order/limit-only ones; the saving is booked in encoded bytes.
		before := wire.TableSize(&nt)
		cols, rows, partial, saved := plan.ApplyFrag(nt.Cols, nt.Rows, a.Env, &frag.Spec)
		if partial || saved > 0 {
			nt.Cols, nt.Rows, nt.Partial = cols, rows, partial
			b.v.Counts.PushdownHits++
			b.v.Counts.PushdownBytes += int64(max(before-wire.TableSize(&nt), 0))
		}
	}
	b.Tables = append(b.Tables, nt)
}

// Forward implements Host: it merges fw's targets into the outgoing
// clones and announces each newly added one as a CHT child of the node
// being visited. The clone-spawn quota is charged per clone message
// created; once spent, further messages are suppressed before their
// entries are announced, so there is nothing to retire.
func (b *Batch) Forward(fw Forward, a Arrival) {
	state := wire.State{NumQ: len(a.Stages), Rem: fw.Rem.String()}
	envKey := wire.EnvKey(a.Env)
	update := &b.Updates[len(b.Updates)-1]
	for i, tgt := range fw.Targets {
		site := webgraph.Host(tgt.URL)
		key := site + "§" + state.Key() + "§" + envKey
		if b.e.NoBatch {
			key = tgt.URL + "§" + state.Key() + "§" + envKey + "§" + strconv.Itoa(i)
		}
		oc := b.outs[key]
		if oc == nil {
			if b.clones < 0 {
				b.v.Counts.BudgetSpent++
				continue
			}
			spendOne(&b.clones)
			// The plan fragment rides on even where pushdown is off, so
			// the next site that applies it still can.
			oc = &Out{Site: site, dests: make(map[string]bool), Msg: &wire.CloneMsg{
				ID: b.in.ID, Rem: state.Rem, Base: a.Base, Stages: EncodeStages(a.Stages),
				Hops: a.Hops + 1, Env: a.Env, Frag: b.in.Frag,
			}}
			if b.e.Spans || !b.in.Span.IsZero() {
				oc.Msg.Span = wire.SpanID{Origin: b.e.Origin, Seq: b.e.Site.NextSpan()}
				oc.Msg.Parent = b.in.Span
			}
			b.outs[key] = oc
			b.Out = append(b.Out, oc)
		}
		if oc.dests[tgt.URL] {
			continue // already forwarded in this batch with this state
		}
		oc.dests[tgt.URL] = true
		dest := wire.DestNode{URL: tgt.URL, Origin: b.e.Origin, Seq: b.e.Site.NextSerial(b.in.ID)}
		oc.Msg.Dest = append(oc.Msg.Dest, dest)
		update.Children = append(update.Children, wire.CHTEntry{Node: tgt.URL, State: state, Origin: dest.Origin, Seq: dest.Seq})
		b.v.Counts.Targets++
	}
}

// spendOne decrements a sentinel quota in place (no-op when unlimited;
// 1 spends to the -1 exhaustion sentinel, never to the unlimited 0).
func spendOne(q *int) {
	switch {
	case *q == 1:
		*q = -1
	case *q > 1:
		*q--
	}
}

// divideQuota splits a remaining clone-spawn quota among n children,
// giving child i its share: as even as possible, remainder to the first
// children, and a zero share landing on the -1 exhaustion sentinel
// (never on the unlimited 0).
func divideQuota(q, n, i int) int {
	if q == 0 || n == 0 {
		return q
	}
	if q < 0 {
		return -1
	}
	share := q / n
	if i < q%n {
		share++
	}
	if share == 0 {
		share = -1
	}
	return share
}
