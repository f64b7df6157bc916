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
	"time"

	"webdis/internal/disql"
	"webdis/internal/htmlx"
	"webdis/internal/nodequery"
	"webdis/internal/plan"
	"webdis/internal/pre"
	"webdis/internal/relmodel"
	"webdis/internal/wire"
)

// ParseStages converts wire stages back into parsed form. It is the
// inverse of EncodeStages.
func ParseStages(ss []wire.StageMsg) ([]disql.Stage, error) {
	out := make([]disql.Stage, len(ss))
	for i, s := range ss {
		e, err := pre.Parse(s.PRE)
		if err != nil {
			return nil, fmt.Errorf("nodeproc: stage %d: %w", i, err)
		}
		out[i] = disql.Stage{PRE: e, Query: s.Query, Export: s.Export}
	}
	return out, nil
}

// ParseStagesCached is ParseStages through pre's shared parse cache:
// steady-state arrivals re-parse nothing, because every clone of one
// query carries the same stage PRE strings. hits reports how many stage
// PREs were served from the cache. The stage slice itself is still built
// per call — Query and Export are decoded per message and must not be
// shared.
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
	// Table holds the node-query's rows when Evaluated.
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
	Targets []Target
}

// Step processes one arrival (rem within the current stage) at the node
// whose virtual relations are db. hasNext tells whether another stage
// follows the current one. env supplies upstream document bindings for
// correlated node-queries (nil for the common uncorrelated case). It
// compiles the stage's node-query for this one node; a Visitor compiles
// it once for every node of a clone message.
func Step(db *relmodel.DB, node string, rem pre.Expr, stage disql.Stage, hasNext bool, env map[string]string) (StepResult, error) {
	var tree *plan.Tree
	return step(db, node, rem, stage, &tree, hasNext, env)
}

// step is Step with the stage's compiled node-query kept in *tree: it is
// compiled by the first evaluation that needs it and reused by the rest.
func step(db *relmodel.DB, node string, rem pre.Expr, stage disql.Stage, tree **plan.Tree, hasNext bool, env map[string]string) (StepResult, error) {
	var res StepResult
	if pre.Nullable(rem) {
		res.Evaluated = true
		if *tree == nil {
			t, err := plan.Compile(stage.Query)
			if err != nil {
				return res, fmt.Errorf("nodeproc: %s: %w", node, err)
			}
			*tree = t
		}
		// Evaluation runs through the volcano operator pipeline, row for
		// row equivalent to the paper's nested-loop evaluator (plan's test
		// oracle pins this), and reports scan/emit statistics.
		tbl, stats, err := (*tree).Eval(db, env)
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
	for _, l := range pre.First(rem) {
		d := pre.Derive(rem, l)
		if pre.IsNone(d) {
			continue
		}
		targets, err := linkTargets(db, node, l)
		if err != nil {
			return res, fmt.Errorf("nodeproc: %s: %w", node, err)
		}
		if len(targets) == 0 {
			continue
		}
		res.Continue = append(res.Continue, Forward{Rem: d, Targets: targets})
	}
	if res.Advance && len(stage.Export) > 0 {
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
// carry independent environments. A stage with no exports returns env
// unchanged. Step has already opened the DOCUMENT relation of a stage
// that advances with exports; should it be unreadable all the same, the
// exports stay unset and the next stage's evaluation reports the missing
// outer reference.
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
			out[docVar+"."+col] = tup[i]
		}
	}
	return out
}

// BuildDB parses a document and constructs its virtual relations — the
// paper's Database Constructor. It exists so server and baseline share the
// exact same construction (and so both count one parse per document).
func BuildDB(url string, content []byte) (*relmodel.DB, error) {
	doc, err := htmlx.Parse(url, content)
	if err != nil {
		return nil, err
	}
	return relmodel.Build(doc), nil
}

// ---------------------------------------------------------------------------
// The Node-query Log Table (Section 3.1.1).

// DedupMode selects how aggressively the log table recognizes equivalent
// arrivals.
type DedupMode int

// Dedup modes. DedupSubsume is the paper's scheme and the zero value, so
// a zero Options deduplicates by subsumption.
const (
	// DedupSubsume adds the paper's star-bound rules: an arrival covered
	// by a logged PRE is dropped, and an arrival that covers a logged PRE
	// replaces it and is rewritten (A*m·B → A·A*(m-1)·B) so only the
	// difference is explored.
	DedupSubsume DedupMode = iota
	// DedupOff disables the log table entirely (the ablation baseline —
	// every arrival is recomputed and re-forwarded).
	DedupOff
	// DedupExact drops only arrivals whose state is syntactically
	// identical to a logged one.
	DedupExact
	// DedupStrong is an extension: full DFA language containment decides
	// coverage, catching equivalences the syntactic rules miss.
	DedupStrong
)

func (m DedupMode) String() string {
	switch m {
	case DedupOff:
		return "off"
	case DedupExact:
		return "exact"
	case DedupSubsume:
		return "subsume"
	case DedupStrong:
		return "strong"
	}
	return fmt.Sprintf("DedupMode(%d)", int(m))
}

// Action is the log table's verdict on an arrival.
type Action int

// Verdict actions.
const (
	Process Action = iota // fresh arrival: process normally
	Drop                  // duplicate: purge the clone for this node
	Rewrite               // superset arrival: process with the rewritten PRE
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

// Verdict is the outcome of a log-table check. For Rewrite, Rem is the
// rewritten remaining PRE to process with.
type Verdict struct {
	Action Action
	Rem    pre.Expr
}

type logEntry struct {
	numQ  int
	rem   pre.Expr
	added time.Time
}

// LogTable records, per (node, query), the states of previously processed
// clones, and classifies new arrivals. It is safe for concurrent use. The
// zero value is not usable; construct with NewLogTable.
type LogTable struct {
	mode DedupMode

	mu      sync.Mutex
	entries map[string][]logEntry // appendLogKey(node, query id, env) -> states
	size    int
}

// appendLogKey appends the log table's key for the arrivals at node, for
// query id, under the upstream environment env. Every field but the last
// is length-prefixed, so no two arrivals share a key by accident of their
// spelling. The key is one string rather than a struct of the fields: an
// entry then holds one small allocation, not the arriving message's own
// copy of each field in a map slot more than twice as wide (a struct key
// raised the live heap of a 364-page traversal workload by 27 %).
func appendLogKey(buf []byte, node string, id wire.QueryID, env string) []byte {
	for _, s := range [...]string{node, id.User, id.Site} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendVarint(buf, int64(id.Num))
	return append(buf, env...)
}

// NewLogTable returns an empty log table operating in the given mode.
func NewLogTable(mode DedupMode) *LogTable {
	return &LogTable{mode: mode, entries: make(map[string][]logEntry)}
}

// Mode returns the table's dedup mode.
func (lt *LogTable) Mode() DedupMode { return lt.mode }

// Len returns the number of logged entries.
func (lt *LogTable) Len() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.size
}

// Check classifies the arrival of a clone for node in state (numQ, rem)
// and updates the table per Section 3.1.1: fresh and superset arrivals are
// logged (superset arrivals replacing the entry they cover), duplicates
// are not. envKey distinguishes correlated clones: arrivals carrying
// different upstream bindings are never equivalent (wire.EnvKey computes
// it; "" for uncorrelated queries).
func (lt *LogTable) Check(node string, id wire.QueryID, numQ int, rem pre.Expr, envKey string) Verdict {
	if lt.mode == DedupOff {
		return Verdict{Action: Process, Rem: rem}
	}
	var buf [128]byte
	key := appendLogKey(buf[:0], node, id, envKey)
	lt.mu.Lock()
	defer lt.mu.Unlock()
	entries := lt.entries[string(key)] // a lookup converts without allocating
	for i, e := range entries {
		if e.numQ != numQ {
			continue
		}
		switch lt.mode {
		case DedupExact:
			if pre.Equal(e.rem, rem) {
				return Verdict{Action: Drop}
			}
		case DedupSubsume, DedupStrong:
			switch pre.Compare(e.rem, rem) {
			case pre.Duplicate, pre.OldCovers:
				return Verdict{Action: Drop}
			case pre.NewCovers:
				// Replace the covered entry with the arrival and rewrite
				// the query so only the difference is explored.
				entries[i].rem = rem
				entries[i].added = time.Now()
				rw, ok := pre.RewriteSuperset(rem)
				if !ok {
					rw = rem
				}
				return Verdict{Action: Rewrite, Rem: rw}
			}
			if lt.mode == DedupStrong {
				if covered, err := pre.Contains(e.rem, rem); err == nil && covered {
					return Verdict{Action: Drop}
				}
			}
		}
	}
	lt.entries[string(key)] = append(entries, logEntry{numQ: numQ, rem: rem, added: time.Now()})
	lt.size++
	return Verdict{Action: Process, Rem: rem}
}

// Purge removes entries older than maxAge. The paper purges periodically
// to bound storage; an over-eager purge only costs recomputation, never
// correctness.
func (lt *LogTable) Purge(maxAge time.Duration) int {
	cutoff := time.Now().Add(-maxAge)
	lt.mu.Lock()
	defer lt.mu.Unlock()
	removed := 0
	for key, entries := range lt.entries {
		kept := entries[:0]
		for _, e := range entries {
			if e.added.After(cutoff) {
				kept = append(kept, e)
			} else {
				removed++
			}
		}
		if len(kept) == 0 {
			delete(lt.entries, key)
		} else {
			lt.entries[key] = kept
		}
	}
	lt.size -= removed
	return removed
}
