// Package nodeproc implements the traversal step of Figures 3 and 4 once,
// for the distributed WEBDIS query server (the user-site's proxy is one)
// and the centralized data-shipping baseline alike. Step, given
// one node's virtual-relation database and one arrival state, decides
// whether the node is a ServerRouter or PureRouter, evaluates the
// node-query if the remaining PRE contains the null link, detects dead
// ends, and computes the next links to traverse. Visitor runs process()
// around it — log-table checks, stage advances, the dead-end rule, the
// hop clamp — and Batch runs process_query for one clone message:
// destination dedup, per-site target grouping, the budget's quotas. The
// callers supply only where documents come from and where rows and
// continuation targets go.
//
// It also houses the Node-query Log Table of Section 3.1.1, because the
// duplicate-arrival rules are processing semantics: the centralized
// baseline applies the same rules to its breadth-first frontier so that
// both engines compute identical result sets.
package nodeproc

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"webdis/internal/disql"
	"webdis/internal/htmlx"
	"webdis/internal/nodequery"
	"webdis/internal/pre"
	"webdis/internal/relmodel"
	"webdis/internal/wire"
)

// ParseStagesCached converts wire stages back into parsed form, the
// inverse of EncodeStages, through pre's shared parse cache. hits reports
// how many stage PREs were served from that cache. A query server's
// worker calls it once per web-query it compiles (see compiled.go), not
// once per clone.
func ParseStagesCached(ss []wire.StageMsg) (stages []disql.Stage, hits int, err error) {
	out := make([]disql.Stage, len(ss))
	for i, s := range ss {
		e, hit, err := pre.ParseCached(s.PRE)
		if err != nil {
			return nil, hits, fmt.Errorf("nodeproc: stage %d: %w", i, err)
		}
		if hit {
			hits++
		}
		out[i] = disql.Stage{PRE: e, Query: s.Query, Export: s.Export}
	}
	return out, hits, nil
}

// EncodeStages converts parsed stages into wire form.
func EncodeStages(ss []disql.Stage) []wire.StageMsg {
	out := make([]wire.StageMsg, len(ss))
	for i, s := range ss {
		out[i] = wire.StageMsg{PRE: s.PRE.String(), Query: s.Query, Export: s.Export}
	}
	return out
}

// Target is one hyperlink the query should be forwarded over.
type Target struct {
	URL  string   // destination node (fragments stripped)
	Link pre.Link // the link category traversed
}

// StepResult is the outcome of processing one arrival state at one node.
type StepResult struct {
	// Evaluated reports whether the node acted as a ServerRouter (the
	// remaining PRE contained the null link, so the node-query ran).
	Evaluated bool
	// Table holds the node-query's rows when Evaluated: the table step
	// was given to drain into (see Visitor.tbl).
	Table *nodequery.Table
	// DeadEnd reports that the node-query ran and found no answer. The
	// paper's Figure-4 pseudocode then forwards nothing at all, but its
	// own worked examples (the L*1 hop of the Section 5 campus query, the
	// "extract all global links" motivation of Example Query 1) require
	// the continuation of the current PRE to proceed — only the advance to
	// the next node-query is cancelled. Step therefore always reports
	// Continue; callers honoring the strict pseudocode discard it when
	// DeadEnd is set.
	DeadEnd bool
	// Scanned and Emitted are the operator pipeline's row statistics for
	// the evaluation (tuples read by scans, distinct rows produced); both
	// zero when the node was a PureRouter.
	Scanned int64
	Emitted int64
	// Continue lists, per derivative, the targets for continuing the
	// *current* PRE (reaching farther nodes that evaluate the same
	// node-query).
	Continue []Forward
	// Advance reports whether processing should move to the next stage at
	// this same node (the node-query succeeded and stages remain).
	Advance bool
}

// Forward groups targets sharing one derived PRE.
type Forward struct {
	Rem     pre.Expr // derivative of the current PRE after the link
	Text    string   // Rem's text, the state the CHT and the clones carry
	Targets []Target
}

// Step processes one arrival (rem within the current stage) at the node
// whose virtual relations are db. hasNext tells whether another stage
// follows the current one. env supplies upstream document bindings for
// correlated node-queries (nil for the common uncorrelated case). It
// compiles the stage for this one node; a query server's worker compiles
// each query once for every clone it sees.
func Step(db *relmodel.DB, node string, rem pre.Expr, stage disql.Stage, hasNext bool, env map[string]string) (StepResult, error) {
	return step(db, node, transient(rem), newCompiled(nil, []disql.Stage{stage}), 0, hasNext, env, 0, new(nodequery.Table))
}

// step is Step for an arrival in state st of stage i of the compiled
// query q, less the work pruned: q's plan for the stage and q's
// derivative table serve it. An evaluation drains into tbl.
func step(db *relmodel.DB, node string, st *state, q *compiled, i int, hasNext bool, env map[string]string, pruned parts, tbl *nodequery.Table) (StepResult, error) {
	var res StepResult
	if st.nullable && pruned&evalPart == 0 {
		res.Evaluated = true
		tree, err := q.tree(i)
		if err != nil {
			return res, fmt.Errorf("nodeproc: %s: %w", node, err)
		}
		// Evaluation runs through the volcano operator pipeline, row for
		// row equivalent to the paper's nested-loop evaluator (plan's test
		// oracle pins this), and reports scan/emit statistics.
		stats, err := tree.Drain(tbl, db, env)
		if err != nil {
			return res, fmt.Errorf("nodeproc: %s: %w", node, err)
		}
		res.Table = tbl
		res.Scanned, res.Emitted = stats.Scanned, stats.Emitted
		if tbl.Empty() {
			res.DeadEnd = true
		} else {
			res.Advance = hasNext
		}
	}
	for _, e := range q.edges(st) {
		if pruned&linkPart(e.link) != 0 {
			continue
		}
		targets, err := linkTargets(db, node, e.link)
		if err != nil {
			return res, fmt.Errorf("nodeproc: %s: %w", node, err)
		}
		if len(targets) == 0 {
			continue
		}
		res.Continue = append(res.Continue, Forward{Rem: e.to.rem, Text: e.to.text, Targets: targets})
	}
	if res.Advance && len(q.stages[i].Export) > 0 {
		// The caller extends the environment from the DOCUMENT tuple next;
		// open it here, where a storage failure can still be reported.
		if _, err := db.Relation(relmodel.RelDocument); err != nil {
			return res, fmt.Errorf("nodeproc: %s: %w", node, err)
		}
	}
	return res, nil
}

// linkTargets selects the anchor destinations of category l, stripping
// fragments (an interior link leads back to the node itself) and removing
// duplicates while preserving document order. A page links to few
// targets, so a duplicate is found by scanning the output.
func linkTargets(db *relmodel.DB, node string, l pre.Link) ([]Target, error) {
	rel, err := db.Relation(relmodel.RelAnchor)
	if err != nil {
		return nil, err
	}
	hrefIdx, typeIdx := rel.Col("href"), rel.Col("ltype")
	ltype := l.String()
	var out []Target
next:
	for _, tup := range rel.Tuples {
		if tup[typeIdx] != ltype {
			continue
		}
		url := tup[hrefIdx]
		if i := strings.IndexByte(url, '#'); i >= 0 {
			url = url[:i]
		}
		if l == pre.Interior {
			url = node
		}
		if url == "" {
			continue
		}
		for _, t := range out {
			if t.URL == url {
				continue next
			}
		}
		out = append(out, Target{URL: url, Link: l})
	}
	return out, nil
}

// ExtendEnv returns env extended with the stage's exported document
// columns read from db (the single DOCUMENT tuple). It copies — clones
// carry independent environments, and the values outlive db's Release.
// A stage with no exports returns env unchanged. Step has already opened
// the DOCUMENT relation of a stage that advances with exports; should it
// be unreadable all the same, the exports stay unset and the next stage's
// evaluation reports the missing outer reference.
func ExtendEnv(env map[string]string, stage disql.Stage, db *relmodel.DB) map[string]string {
	if len(stage.Export) == 0 {
		return env
	}
	out := make(map[string]string, len(env)+len(stage.Export))
	for k, v := range env {
		out[k] = v
	}
	document, err := db.Relation(relmodel.RelDocument)
	if err != nil {
		return out
	}
	docVar := stage.Query.Vars[0].Name
	tup := document.Tuples[0]
	for _, col := range stage.Export {
		if i := document.Col(col); i >= 0 {
			out[docVar+"."+col] = db.Detach(tup[i]) // travels on with the clone
		}
	}
	return out
}

// BuildDB parses a document and constructs its virtual relations — the
// paper's Database Constructor — into a scratch from the process-wide
// pool (htmlx.ParseInto, relmodel.BuildInto). The DB's Release, after its
// node-query, is the paper's purge and hands the memory back. It exists
// so server and baseline share the exact same construction (and so both
// count one parse per document).
func BuildDB(url string, content []byte) (*relmodel.DB, error) {
	s := relmodel.NewScratch()
	doc, err := htmlx.ParseInto(url, content, &s.Parse)
	if err != nil {
		return nil, err // an unparseable URL leaves the scratch to the collector
	}
	return relmodel.BuildInto(doc, s), nil
}

// BuildOwnedDB is BuildDB into memory of the DB's own, for a database
// kept past its node-query (a retained CacheDBs entry): its Release does
// nothing.
func BuildOwnedDB(url string, content []byte) (*relmodel.DB, error) {
	doc, err := htmlx.Parse(url, content)
	if err != nil {
		return nil, err
	}
	return relmodel.Build(doc), nil
}

// ---------------------------------------------------------------------------
// The Node-query Log Table (Section 3.1.1).

// DedupMode selects whether the log table judges arrivals.
type DedupMode int

// Dedup modes. DedupSubsume is the paper's scheme and the zero value, so
// a zero Options deduplicates.
const (
	// DedupSubsume is the log rule of Section 3.1.1, decided by language
	// containment (see LogTable): an arrival whose work logged states
	// cover is dropped, and one they cover in part is rewritten to
	// explore only the difference.
	DedupSubsume DedupMode = iota
	// DedupOff disables the log table entirely (the ablation baseline —
	// every arrival is recomputed and re-forwarded).
	DedupOff
)

func (m DedupMode) String() string {
	switch m {
	case DedupOff:
		return "off"
	case DedupSubsume:
		return "subsume"
	}
	return fmt.Sprintf("DedupMode(%d)", int(m))
}

// Action is the log table's verdict on an arrival.
type Action int

// Verdict actions.
const (
	Process Action = iota // fresh arrival: process normally
	Drop                  // covered arrival: purge the clone for this node
	Rewrite               // partly covered arrival: process only the rest
)

func (a Action) String() string {
	switch a {
	case Process:
		return "process"
	case Drop:
		return "drop"
	case Rewrite:
		return "rewrite"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// parts is a set of an arrival's work at a node: the node-query's
// evaluation and the forward over each link category.
type parts uint8

const evalPart parts = 8

func linkPart(l pre.Link) parts {
	switch l {
	case pre.Interior:
		return 1
	case pre.Local:
		return 2
	}
	return 4
}

// Verdict is the outcome of a log-table check. For Rewrite, pruned is
// the arrival's work that logged states cover: the visit neither does
// nor forwards it.
type Verdict struct {
	Action Action
	pruned parts
}

// LogTable records, per (query, node, stage, environment), the states of
// previously processed clones, and judges new arrivals by one rule. Let E
// be the states logged at an arrival's key and t its state. t evaluates
// the node-query only if t is nullable and no state of E is nullable and
// alike — both route on over some link, or neither does; it forwards
// over link l only if no e of E has a derivative e_l whose language
// contains t_l. Nothing left is a Drop, something pruned a Rewrite.
// Either way t is logged, and the entries whose work t covers leave.
// On the paper's A*m·B shapes (m ≥ 1) this is exactly its drop-and-rewrite
// rule (A*m·B → A·A*(m-1)·B); containment extends it to states whose text
// differs but whose language does not. The empty path's state N, which
// every bounded traversal ends in, shares its evaluation only with N: a
// node reached at a last hop and, by a shorter path, with hops to spare
// is the common shape of a web, and judging N against the longer state
// would make who evaluates, who is dropped and how often the node is
// parsed depend on which arrival came first. It is safe for concurrent
// use. The zero value is not usable; construct with NewLogTable.
type LogTable struct {
	mode DedupMode

	mu sync.Mutex
	// entries holds the logged states, keyed by the query (see Check and
	// CheckQuery), the node's number in nodes, numQ and the environment.
	// The key is one string rather than a struct of the fields: an entry
	// then holds one small allocation, not the arriving message's own copy
	// of each field in a map slot more than twice as wide. Numbering the
	// nodes keeps the URL, the longest field, out of every key; nodes
	// holds every node the table has logged an arrival at. An entry is
	// the *state a Visitor checked, or the pre.Expr Check or CheckQuery
	// was given: one interface value, no wider than the PRE alone, for
	// a table that keeps every entry until a purge. The compiled query
	// that judges an entry finds it in its own table (compiled.judge).
	entries map[string][]any
	nodes   map[string]uint64
	size    int
	// q compiles the states Check and CheckQuery compare, which come with
	// no compiled query of their own; a Visitor brings its own.
	q *compiled
}

// NewLogTable returns an empty log table operating in the given mode.
func NewLogTable(mode DedupMode) *LogTable {
	return &LogTable{mode: mode, entries: make(map[string][]any), nodes: make(map[string]uint64), q: newCompiled(nil, nil)}
}

// Mode returns the table's dedup mode.
func (lt *LogTable) Mode() DedupMode { return lt.mode }

// Len returns the number of logged entries.
func (lt *LogTable) Len() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.size
}

// Check judges the arrival of a clone of query id for node in state
// (numQ, rem) and updates the table per Section 3.1.1. envKey
// distinguishes correlated clones: arrivals carrying different upstream
// bindings are never equivalent (wire.EnvKey computes it; "" for
// uncorrelated queries).
func (lt *LogTable) Check(node string, id wire.QueryID, numQ int, rem pre.Expr, envKey string) Verdict {
	var buf [64]byte
	key := append(buf[:0], 0) // no query number: the id names the query
	for _, s := range [...]string{id.User, id.Site} {
		key = append(binary.AppendUvarint(key, uint64(len(s))), s...)
	}
	return lt.check(binary.AppendVarint(key, int64(id.Num)), node, envKey, numQ, rem, nil, nil)
}

// CheckQuery is Check for the query a site numbers q (q > 0), as a query
// server numbers each query it keeps a record of: q leads the key in
// place of the id, and Purge drops every entry of a query at once.
func (lt *LogTable) CheckQuery(q uint64, node string, numQ int, rem pre.Expr, envKey string) Verdict {
	var buf [64]byte
	return lt.check(binary.AppendUvarint(buf[:0], q), node, envKey, numQ, rem, nil, nil)
}

// check is the Section 3.1.1 verdict on an arrival at node, under env,
// in state (numQ, rem), of the query whose part of the key is key. st is
// rem's state in the compiled query q, which judges it; a nil q is the
// table's own.
func (lt *LogTable) check(key []byte, node, env string, numQ int, rem pre.Expr, st *state, q *compiled) Verdict {
	if lt.mode == DedupOff {
		return Verdict{Action: Process}
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	n, ok := lt.nodes[node]
	if !ok {
		n = uint64(len(lt.nodes))
		lt.nodes[strings.Clone(node)] = n
	}
	key = binary.AppendUvarint(binary.AppendUvarint(key, n), uint64(numQ))
	key = append(key, env...)
	entries := lt.entries[string(key)] // a lookup converts without allocating
	var v Verdict
	if len(entries) > 0 {
		if q == nil {
			q = lt.q
		}
		if st == nil {
			st = q.state(rem)
		}
		var kept []any
		v, kept = q.judge(entries, st)
		clear(entries[len(kept):])
		lt.size -= len(entries) - len(kept)
		entries = kept
	}
	var e any = rem
	if st != nil {
		e = st
	}
	lt.entries[string(key)] = append(entries, e)
	lt.size++
	return v
}

// Purge removes every entry of the queries numbered in gone (CheckQuery's
// q) and returns how many it removed. The paper purges periodically to
// bound storage; an over-eager purge only costs recomputation, never
// correctness.
func (lt *LogTable) Purge(gone map[uint64]bool) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	removed := 0
	for key, entries := range lt.entries {
		var q [binary.MaxVarintLen64]byte
		if n, _ := binary.Uvarint(q[:copy(q[:], key)]); gone[n] {
			delete(lt.entries, key)
			removed += len(entries)
		}
	}
	lt.size -= removed
	return removed
}
