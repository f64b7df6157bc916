package nodeproc

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"webdis/internal/disql"
	"webdis/internal/nodequery"
	"webdis/internal/pre"
	"webdis/internal/relmodel"
	"webdis/internal/wire"
)

const nodeHTML = `<html><head><title>Step Test</title></head><body>
<p>This node holds the token q1-answer.</p>
<a href="sib.html">sibling</a>
<a href="other.html">other sibling</a>
<a href="http://far.example/x.html">far</a>
<a href="#frag">self</a>
</body></html>`

const nodeURL = "http://near.example/index.html"

func db(t *testing.T) *relmodel.DB {
	t.Helper()
	d, err := BuildDB(nodeURL, []byte(nodeHTML))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func stage(marker string) disql.Stage {
	return disql.Stage{
		PRE: pre.MustParse("G"), // unused by Step itself
		Query: &nodequery.Query{
			Vars:   []nodequery.VarDecl{{Name: "d", Rel: "document"}},
			Where:  nodequery.Compare(nodequery.ColOperand("d", "text"), nodequery.Contains, nodequery.LitOperand(marker)),
			Select: []nodequery.ColRef{{Var: "d", Col: "url"}},
		},
	}
}

func TestStepPureRouter(t *testing.T) {
	res, err := Step(db(t), nodeURL, pre.MustParse("G|L"), stage("q1-answer"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated || res.DeadEnd || res.Advance {
		t.Errorf("res = %+v", res)
	}
	if len(res.Continue) != 2 {
		t.Fatalf("continue = %+v", res.Continue)
	}
	// Canonical order: I, L, G — here L then G.
	if res.Continue[0].Targets[0].Link != pre.Local || len(res.Continue[0].Targets) != 2 {
		t.Errorf("local forward = %+v", res.Continue[0])
	}
	if res.Continue[1].Targets[0].URL != "http://far.example/x.html" {
		t.Errorf("global forward = %+v", res.Continue[1])
	}
	for _, f := range res.Continue {
		if f.Rem.String() != "N" {
			t.Errorf("derivative = %s", f.Rem)
		}
	}
}

func TestStepServerRouterSuccess(t *testing.T) {
	res, err := Step(db(t), nodeURL, pre.MustParse("N|L*2"), stage("q1-answer"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Evaluated || res.DeadEnd || !res.Advance {
		t.Fatalf("res = %+v", res)
	}
	if res.Table.Empty() || res.Table.Rows[0][0] != nodeURL {
		t.Errorf("table = %+v", res.Table)
	}
	// The PRE also continues on local links with the bound decremented.
	if len(res.Continue) != 1 || res.Continue[0].Rem.String() != "L*1" {
		t.Errorf("continue = %+v", res.Continue)
	}
}

func TestStepDeadEndCancelsAdvanceOnly(t *testing.T) {
	res, err := Step(db(t), nodeURL, pre.MustParse("N|L*2"), stage("no-such-token"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadEnd {
		t.Fatal("expected dead end")
	}
	if res.Advance {
		t.Error("dead end must not advance to the next node-query")
	}
	// The continuation of the current PRE is still reported; strict-mode
	// callers discard it.
	if len(res.Continue) != 1 || res.Continue[0].Rem.String() != "L*1" {
		t.Errorf("continue = %+v", res.Continue)
	}
}

func TestStepDeadEndWithExhaustedPRE(t *testing.T) {
	// Figure 1's node 7: the PRE is exhausted, the node-query fails, and
	// nothing at all can be forwarded.
	res, err := Step(db(t), nodeURL, pre.MustParse("N"), stage("no-such-token"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadEnd || res.Advance || len(res.Continue) != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestStepLastStageDoesNotAdvance(t *testing.T) {
	res, err := Step(db(t), nodeURL, pre.MustParse("N"), stage("q1-answer"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advance {
		t.Error("no next stage to advance to")
	}
	if len(res.Continue) != 0 {
		t.Errorf("continue = %+v", res.Continue)
	}
}

func TestStepInteriorLinkLeadsToSelf(t *testing.T) {
	res, err := Step(db(t), nodeURL, pre.MustParse("I"), stage("q1-answer"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Continue) != 1 || res.Continue[0].Targets[0].URL != nodeURL {
		t.Fatalf("continue = %+v", res.Continue)
	}
}

// fanoutPage is shaped like an inner page of the fanout-tcp workload: a
// title, one <h1> rel-infon and three absolute links on its own site.
const fanoutPage = `<!doctype html>
<html>
<head><title>Tree page 1</title></head>
<body>
<h1>Tree page 1</h1>
<p>protocol predicate systems index prototype content content prototype</p>
<a href="http://t0.example/p4.html">child 4</a>
<a href="http://t0.example/p5.html">child 5</a>
<a href="http://t0.example/p6.html">child 6</a>
</body>
</html>
`

// TestBuildDBAllocs pins the Database Constructor's cost per page. In the
// steady state — BuildDB and Release, the scratch back from the pool — it
// allocates only what leaves the page's memory: one href string per link,
// the title and the length numeral. BuildOwnedDB, which parses with the
// allocate-fresh htmlx.Parse, adds the Document, its text, the anchor and
// rel-infon slices, the DB with its relations, the rows and their slab.
func TestBuildDBAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const url = "http://t0.example/p1.html"
	d, err := BuildDB(url, []byte(fanoutPage))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Size(); n != 1+3+1 {
		t.Fatalf("%d tuples, want 1 document, 3 anchors, 1 rel-infon", n)
	}
	if a := testing.AllocsPerRun(100, func() { linkTargets(d, url, pre.Local) }); a > 3 {
		t.Errorf("linkTargets: %.0f allocations, want <= 3 (the growing output)", a)
	}
	d.Release()
	src := []byte(fanoutPage)
	pooled := testing.AllocsPerRun(100, func() {
		d, _ := BuildDB(url, src)
		d.Release()
	})
	if pooled > 5 {
		t.Errorf("BuildDB + Release: %.0f allocations, want <= 5", pooled)
	}
	owned := testing.AllocsPerRun(100, func() { BuildOwnedDB(url, src) })
	if owned > 12 {
		t.Errorf("BuildOwnedDB: %.0f allocations, want <= 12", owned)
	}
	t.Logf("a %d-byte page: %.0f allocations pooled, %.0f owned", len(src), pooled, owned)
}

func TestStageRoundTrip(t *testing.T) {
	in := []disql.Stage{stage("x"), {PRE: pre.MustParse("G·L*4"), Query: stage("y").Query}}
	enc := EncodeStages(in)
	if enc[1].PRE != "G·L*4" {
		t.Errorf("encoded = %+v", enc[1])
	}
	out, _, err := ParseStagesCached(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Equal(out[1].PRE, in[1].PRE) || out[0].Query != in[0].Query {
		t.Errorf("round trip = %+v", out)
	}
	if _, _, err := ParseStagesCached([]wire.StageMsg{{PRE: "bogus("}}); err == nil {
		t.Error("bad PRE should fail")
	}
}

var qid = wire.QueryID{User: "u", Site: "user/q1", Num: 1}

func TestLogTableExactDuplicate(t *testing.T) {
	lt := NewLogTable(DedupSubsume)
	v := lt.Check("http://n", qid, 2, pre.MustParse("G|L"), "")
	if v.Action != Process {
		t.Fatalf("first arrival = %v", v.Action)
	}
	v = lt.Check("http://n", qid, 2, pre.MustParse("G|L"), "")
	if v.Action != Drop {
		t.Fatalf("duplicate = %v", v.Action)
	}
	// Different state (numQ) is fresh.
	v = lt.Check("http://n", qid, 1, pre.MustParse("G|L"), "")
	if v.Action != Process {
		t.Fatalf("different numQ = %v", v.Action)
	}
	// Different node is fresh.
	v = lt.Check("http://m", qid, 2, pre.MustParse("G|L"), "")
	if v.Action != Process {
		t.Fatalf("different node = %v", v.Action)
	}
	// Different query id is fresh.
	other := wire.QueryID{User: "u", Site: "user/q2", Num: 2}
	v = lt.Check("http://n", other, 2, pre.MustParse("G|L"), "")
	if v.Action != Process {
		t.Fatalf("different query = %v", v.Action)
	}
	// Query ids whose fields run together alike are different queries.
	v = lt.Check("http://n", wire.QueryID{User: "a@b", Site: "c", Num: 2}, 2, pre.MustParse("G|L"), "")
	if v.Action != Process {
		t.Fatalf("first of two alike-spelled queries = %v", v.Action)
	}
	v = lt.Check("http://n", wire.QueryID{User: "a", Site: "b@c", Num: 2}, 2, pre.MustParse("G|L"), "")
	if v.Action != Process {
		t.Fatalf("second of two alike-spelled queries = %v", v.Action)
	}
	if lt.Len() != 6 {
		t.Errorf("Len = %d", lt.Len())
	}
}

// TestLogTableCheckAllocs pins what a fresh arrival's log-table check
// costs: its key and its entry, nothing to build the key with.
func TestLogTableCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lt := NewLogTable(DedupSubsume)
	rem := pre.MustParse("G|L")
	num := 1
	if a := testing.AllocsPerRun(100, func() {
		num++
		lt.Check("http://t3.example/p0.html", wire.QueryID{User: qid.User, Site: qid.Site, Num: num}, 1, rem, "")
	}); a > 2 {
		t.Errorf("fresh arrival: %.0f allocations, want <= 2", a)
	}
}

// TestLogTableSubsumption is the §3.1.1 decision table (T7): arrivals of
// one query at one node, in order, each judged against what the earlier
// ones logged. The paper's worked example is its first five rows: log
// L*2·G; L*1·G is covered and dropped; L*4·G covers the log entry,
// replaces it and explores only its L-successor (the paper's L·L*3·G),
// so L*3·G is now covered.
func TestLogTableSubsumption(t *testing.T) {
	lt := NewLogTable(DedupSubsume)
	for _, c := range []struct {
		arrives string
		action  Action
		rem     string // what a rewritten arrival still explores
	}{
		{"L*2·G", Process, ""},
		{"L*1·G", Drop, ""},
		{"L*2·G", Drop, ""},
		{"L*4·G", Rewrite, "L·L*3·G"},
		{"L*3·G", Drop, ""},
		{"L*·G", Rewrite, "L·L*·G"},
		{"G·L", Process, ""},
	} {
		e := pre.MustParse(c.arrives)
		v := lt.Check("http://n", qid, 1, e, "")
		rem := ""
		if v.Action == Rewrite {
			rem = lt.q.rewritten(lt.q.state(e), v.pruned).String()
		}
		if v.Action != c.action || rem != c.rem {
			t.Errorf("%s: %v %q, want %v %q", c.arrives, v.Action, rem, c.action, c.rem)
		}
	}
	// Every arrival is logged, and the entries within it leave: L*·G
	// leaves only itself, and G·L adds one.
	if lt.Len() != 2 {
		t.Errorf("Len = %d", lt.Len())
	}
}

// TestLogTableRewriteCascade is T7's multi-rewrite rule: a chain first
// explored under L*2 logs L*2, L*1 and N at depths 0–2, evaluating at
// each. A clone carrying L*5 that walks the same chain later is rewritten
// at the first n = 2 nodes it encounters, the paper's n. At the chain's
// end the logged N, a pure evaluation, shares its evaluation with no
// router (see LogTable), so L*3 is processed there, and then runs free.
func TestLogTableRewriteCascade(t *testing.T) {
	lt := NewLogTable(DedupSubsume)
	node := func(depth int) string { return "http://chain.example/p" + strconv.Itoa(depth) + ".html" }
	for depth, rem := 0, pre.MustParse("L*2"); ; depth++ {
		lt.Check(node(depth), qid, 1, rem, "")
		if len(pre.First(rem)) == 0 {
			break
		}
		rem = pre.Derive(rem, pre.Local)
	}
	var actions []string
	rem := pre.MustParse("L*5")
	for depth := 0; depth < 6; depth++ {
		v := lt.Check(node(depth), qid, 1, rem, "")
		actions = append(actions, v.Action.String())
		switch {
		case v.Action == Drop:
			t.Fatalf("depth %d: %s dropped", depth, rem)
		case v.Action == Rewrite && v.pruned != evalPart:
			t.Fatalf("depth %d: %s pruned %b, want only the evaluation", depth, rem, v.pruned)
		}
		if len(pre.First(rem)) == 0 {
			break
		}
		rem = pre.Derive(rem, pre.Local)
	}
	if got := strings.Join(actions, " "); got != "rewrite rewrite process process process process" {
		t.Errorf("L*5 along the chain: %s", got)
	}
}

// TestLogTableContainment: states whose text no syntactic rule relates
// are judged by their languages.
func TestLogTableContainment(t *testing.T) {
	lt := NewLogTable(DedupSubsume)
	lt.Check("http://n", qid, 1, pre.MustParse("(G|L)·(G|L)"), "")
	// G·L is strictly contained in (G|L)·(G|L).
	if v := lt.Check("http://n", qid, 1, pre.MustParse("G·L"), ""); v.Action != Drop {
		t.Fatalf("contained arrival = %v", v.Action)
	}
	// (L|G)·(L|G) is the same language in other words.
	if v := lt.Check("http://n", qid, 1, pre.MustParse("(L|G)·(L|G)"), ""); v.Action != Drop {
		t.Fatalf("equal language = %v", v.Action)
	}
	if v := lt.Check("http://n", qid, 1, pre.MustParse("I·I"), ""); v.Action != Process {
		t.Fatalf("uncovered arrival = %v", v.Action)
	}
}

// TestLogTableEmptyPathAlone: N, which routes nowhere, shares its
// evaluation only with N, so N and G*1 are both processed in either
// order; routers still share theirs.
func TestLogTableEmptyPathAlone(t *testing.T) {
	for _, order := range [][]string{{"G*1", "N"}, {"N", "G*1"}} {
		lt := NewLogTable(DedupSubsume)
		for _, rem := range order {
			if v := lt.Check("http://n", qid, 1, pre.MustParse(rem), ""); v.Action != Process {
				t.Errorf("%v: %s = %v, want process", order, rem, v.Action)
			}
		}
		if v := lt.Check("http://n", qid, 1, pre.MustParse("N"), ""); v.Action != Drop {
			t.Errorf("%v: N again = %v, want drop", order, v.Action)
		}
		if v := lt.Check("http://n", qid, 1, pre.MustParse("G*2"), ""); v.Action != Rewrite || v.pruned != evalPart {
			t.Errorf("%v: G*2 = %v pruning %b, want a rewrite of its evaluation", order, v.Action, v.pruned)
		}
	}
}

// TestLogRuleMemoised: a worker's compiled query judges a (logged,
// arriving) pair of its states once; a repeat comparison is a map
// lookup, and the repeated duplicate costs only its key.
func TestLogRuleMemoised(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lt, q := NewLogTable(DedupSubsume), newCompiled(nil, nil)
	logged, dup := q.state(pre.MustParse("(G|L)*3·G")), q.state(pre.MustParse("(L|G)*2·G"))
	var buf [64]byte
	check := func(st *state) Verdict { return lt.check(buf[:0], "http://n", "", 1, st.rem, st, q) }
	check(logged)
	if v := check(dup); v.Action != Drop || len(q.covers) != 1 {
		t.Fatalf("covered arrival: %v, %d pairs judged", v.Action, len(q.covers))
	}
	if a := testing.AllocsPerRun(100, func() { check(dup) }); a > 1 {
		t.Errorf("repeated duplicate: %.0f allocations, want <= 1", a)
	}
}

// randomPRE is a PRE over I, L, G and N nested depth deep, its stars
// bounded by 3.
func randomPRE(r *rand.Rand, depth int) pre.Expr {
	if depth == 0 {
		return [...]pre.Expr{pre.Sym(pre.Interior), pre.Sym(pre.Local), pre.Sym(pre.Global), pre.Eps()}[r.Intn(4)]
	}
	switch r.Intn(4) {
	case 0:
		return pre.Cat(randomPRE(r, depth-1), randomPRE(r, depth-1))
	case 1:
		return pre.Alt(randomPRE(r, depth-1), randomPRE(r, depth-1))
	case 2:
		return pre.Rep(randomPRE(r, depth-1), 1+r.Intn(3))
	}
	return randomPRE(r, depth-1)
}

// TestQuickRewritePrunesOnlyCovered: arrivals at one node in states
// drawn from one query's derivatives. Whatever a verdict prunes is work
// a state logged before it did: the evaluation only when a logged state
// is nullable, the forward over l only when one logged state's
// l-derivative matches every path of up to five links the arrival's
// does.
func TestQuickRewritePrunesOnlyCovered(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lt := NewLogTable(DedupSubsume)
		base := randomPRE(r, 3)
		for i := 0; i < 8; i++ {
			arr := base
			for n := r.Intn(3); n > 0 && !pre.IsNone(arr); n-- {
				arr = pre.Derive(arr, pre.Links[r.Intn(3)])
			}
			if pre.IsNone(arr) {
				continue
			}
			var logged []pre.Expr
			for _, es := range lt.entries {
				for _, e := range es {
					if st, ok := e.(*state); ok {
						e = st.rem
					}
					logged = append(logged, e.(pre.Expr))
				}
			}
			v := lt.Check("http://n", qid, 1, arr, "")
			if v.Action == Process && v.pruned != 0 || v.Action != Process && v.pruned == 0 {
				t.Logf("%s: %v pruning %b", arr, v.Action, v.pruned)
				return false
			}
			if v.pruned&evalPart != 0 && !(pre.Nullable(arr) && slices.ContainsFunc(logged, pre.Nullable)) {
				t.Logf("%s: evaluation pruned, logged %v", arr, logged)
				return false
			}
			for _, l := range pre.Links {
				if v.pruned&linkPart(l) == 0 {
					continue
				}
				paths := pre.Enumerate(pre.Derive(arr, l), 5)
				if !slices.ContainsFunc(logged, func(e pre.Expr) bool {
					return !slices.ContainsFunc(paths, func(p []pre.Link) bool { return !pre.Matches(pre.Derive(e, l), p) })
				}) {
					t.Logf("%s: %s-forward pruned, logged %v", arr, l, logged)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogTableOff(t *testing.T) {
	lt := NewLogTable(DedupOff)
	for i := 0; i < 3; i++ {
		if v := lt.Check("http://n", qid, 1, pre.MustParse("G"), ""); v.Action != Process {
			t.Fatalf("off mode = %v", v.Action)
		}
	}
	if lt.Len() != 0 {
		t.Errorf("off mode should not log; Len = %d", lt.Len())
	}
}

// TestLogTablePurge: a purge drops every entry of the queries it names
// and no other, whatever node or environment they were logged under.
func TestLogTablePurge(t *testing.T) {
	lt := NewLogTable(DedupSubsume)
	g := pre.MustParse("G")
	lt.CheckQuery(1, "http://n", 1, g, "")
	lt.CheckQuery(1, "http://m", 1, g, "d0.title=x")
	lt.CheckQuery(2, "http://n", 1, g, "")
	lt.CheckQuery(200, "http://n", 1, g, "")
	lt.Check("http://n", qid, 1, g, "")
	if removed := lt.Purge(map[uint64]bool{1: true, 200: true}); removed != 3 {
		t.Fatalf("removed = %d", removed)
	}
	if lt.Len() != 2 {
		t.Errorf("Len = %d", lt.Len())
	}
	// After the purge, the same arrival is processed again (performance,
	// not correctness); the queries not named keep theirs.
	if v := lt.CheckQuery(1, "http://n", 1, g, ""); v.Action != Process {
		t.Fatalf("post-purge = %v", v.Action)
	}
	if v := lt.CheckQuery(2, "http://n", 1, g, ""); v.Action != Drop {
		t.Fatalf("query 2 after the purge = %v", v.Action)
	}
	if v := lt.Check("http://n", qid, 1, g, ""); v.Action != Drop {
		t.Fatalf("query named by id after the purge = %v", v.Action)
	}
}

func TestModeAndActionStrings(t *testing.T) {
	if DedupSubsume.String() != "subsume" || DedupOff.String() != "off" {
		t.Error("mode strings")
	}
	if Process.String() != "process" || Drop.String() != "drop" || Rewrite.String() != "rewrite" {
		t.Error("action strings")
	}
}

func TestLogTableEnvDistinguishesCorrelatedClones(t *testing.T) {
	// Two clones in the same (node, numQ, rem) state but carrying
	// different upstream bindings are different clones: correlated
	// predicates could evaluate differently.
	lt := NewLogTable(DedupSubsume)
	rem := pre.MustParse("G|L")
	if v := lt.Check("http://n", qid, 1, rem, "d0.title=Databases"); v.Action != Process {
		t.Fatalf("first env = %v", v.Action)
	}
	if v := lt.Check("http://n", qid, 1, rem, "d0.title=Compilers"); v.Action != Process {
		t.Fatalf("different env = %v", v.Action)
	}
	if v := lt.Check("http://n", qid, 1, rem, "d0.title=Databases"); v.Action != Drop {
		t.Fatalf("same env duplicate = %v", v.Action)
	}
}

func TestExtendEnv(t *testing.T) {
	d := db(t)
	st := stage("q1-answer")
	st.Export = []string{"title", "url"}
	env := map[string]string{"d9.text": "upstream"}
	got := ExtendEnv(env, st, d)
	if got["d.title"] != "Step Test" || got["d.url"] != nodeURL || got["d9.text"] != "upstream" {
		t.Errorf("env = %v", got)
	}
	// The original map is untouched (clones carry independent envs).
	if len(env) != 1 {
		t.Errorf("input env mutated: %v", env)
	}
	// No exports: same map returned.
	plain := stage("x")
	if out := ExtendEnv(env, plain, d); len(out) != 1 {
		t.Errorf("no-export env = %v", out)
	}
}
