package nodeproc

import (
	"strconv"
	"strings"
	"testing"
	"time"

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

// TestBuildDBAllocs pins the Database Constructor's cost per page: the
// Document, its text, title, anchor and rel-infon slices, one href string
// per link, then the DB with its relations, the rows, their slab and the
// length numeral.
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
	src := []byte(fanoutPage)
	a := testing.AllocsPerRun(100, func() { BuildDB(url, src) })
	if a > 12 {
		t.Errorf("BuildDB: %.0f allocations, want <= 12", a)
	}
	t.Logf("BuildDB of a %d-byte page: %.0f allocations", len(src), a)
	if a := testing.AllocsPerRun(100, func() { linkTargets(d, url, pre.Local) }); a > 3 {
		t.Errorf("linkTargets: %.0f allocations, want <= 3 (the growing output)", a)
	}
}

func TestStageRoundTrip(t *testing.T) {
	in := []disql.Stage{stage("x"), {PRE: pre.MustParse("G·L*4"), Query: stage("y").Query}}
	enc := EncodeStages(in)
	if enc[1].PRE != "G·L*4" {
		t.Errorf("encoded = %+v", enc[1])
	}
	out, err := ParseStages(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Equal(out[1].PRE, in[1].PRE) || out[0].Query != in[0].Query {
		t.Errorf("round trip = %+v", out)
	}
	if _, err := ParseStages([]wire.StageMsg{{PRE: "bogus("}}); err == nil {
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
// replaces it and is rewritten to L·L*3·G, so L*3·G is now covered.
func TestLogTableSubsumption(t *testing.T) {
	lt := NewLogTable(DedupSubsume)
	for _, c := range []struct {
		arrives string
		action  Action
		rem     string // what a rewritten arrival is processed as
	}{
		{"L*2·G", Process, ""},
		{"L*1·G", Drop, ""},
		{"L*2·G", Drop, ""},
		{"L*4·G", Rewrite, "L·L*3·G"},
		{"L*3·G", Drop, ""},
		{"L*·G", Rewrite, "L·L*·G"},
		{"G·L", Process, ""},
	} {
		v := lt.Check("http://n", qid, 1, pre.MustParse(c.arrives), "")
		rem := ""
		if v.Action == Rewrite {
			rem = v.Rem.String()
		}
		if v.Action != c.action || rem != c.rem {
			t.Errorf("%s: %v %q, want %v %q", c.arrives, v.Action, rem, c.action, c.rem)
		}
	}
	// A rewrite replaces the entry it covers; only G·L, which no star
	// shape relates to the rest, adds one.
	if lt.Len() != 2 {
		t.Errorf("Len = %d", lt.Len())
	}
}

// TestLogTableRewriteCascade is T7's multi-rewrite rule: a chain first
// explored under L*2 logs L*2, L*1 and N at depths 0–2. A clone carrying
// L*5 that walks the same chain later is rewritten at the first n = 2
// nodes it encounters, the paper's n, and then runs free.
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
		next := rem
		switch v.Action {
		case Drop:
			t.Fatalf("depth %d: %s dropped", depth, rem)
		case Rewrite:
			next = v.Rem
		}
		if len(pre.First(next)) == 0 {
			break
		}
		rem = pre.Derive(next, pre.Local)
	}
	if got := strings.Join(actions, " "); got != "rewrite rewrite process process process process" {
		t.Errorf("L*5 along the chain: %s", got)
	}
}

func TestLogTableExactModeIgnoresSubsumption(t *testing.T) {
	lt := NewLogTable(DedupExact)
	lt.Check("http://n", qid, 1, pre.MustParse("L*2·G"), "")
	if v := lt.Check("http://n", qid, 1, pre.MustParse("L*1·G"), ""); v.Action != Process {
		t.Fatalf("exact mode should process L*1·G: %v", v.Action)
	}
	if v := lt.Check("http://n", qid, 1, pre.MustParse("L*2·G"), ""); v.Action != Drop {
		t.Fatalf("exact duplicate = %v", v.Action)
	}
}

func TestLogTableStrongMode(t *testing.T) {
	lt := NewLogTable(DedupStrong)
	lt.Check("http://n", qid, 1, pre.MustParse("(G|L)·(G|L)"), "")
	// G·L is strictly contained in (G|L)·(G|L): the syntactic rules miss
	// it, language containment catches it.
	if v := lt.Check("http://n", qid, 1, pre.MustParse("G·L"), ""); v.Action != Drop {
		t.Fatalf("strong containment = %v", v.Action)
	}
	if v := lt.Check("http://n", qid, 1, pre.MustParse("I·I"), ""); v.Action != Process {
		t.Fatalf("uncovered arrival = %v", v.Action)
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

func TestLogTablePurge(t *testing.T) {
	lt := NewLogTable(DedupSubsume)
	lt.Check("http://n", qid, 1, pre.MustParse("G"), "")
	lt.Check("http://m", qid, 1, pre.MustParse("G"), "")
	time.Sleep(5 * time.Millisecond)
	if removed := lt.Purge(time.Millisecond); removed != 2 {
		t.Fatalf("removed = %d", removed)
	}
	if lt.Len() != 0 {
		t.Errorf("Len = %d", lt.Len())
	}
	// After the purge, the same arrival is processed again (performance,
	// not correctness).
	if v := lt.Check("http://n", qid, 1, pre.MustParse("G"), ""); v.Action != Process {
		t.Fatalf("post-purge = %v", v.Action)
	}
}

func TestModeAndActionStrings(t *testing.T) {
	if DedupSubsume.String() != "subsume" || DedupOff.String() != "off" ||
		DedupExact.String() != "exact" || DedupStrong.String() != "strong" {
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
