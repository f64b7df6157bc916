package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// renderResults flattens a query's result tables into a canonical string
// for comparison with the reference answer (row order within a stage is
// already deterministic — sorted or order-by-driven — so this keeps it).
func renderResults(q *client.Query) string { return renderTables(q.Results()) }

// reference renders the answer of the centralized baseline, whose own
// output fold is the oracle for every aggregated, ordered or limited
// query: it downloads the documents of a fresh deployment of web.
func reference(t *testing.T, web *webgraph.Web, src string) string {
	t.Helper()
	return renderTables(referenceTables(t, web, src))
}

func referenceTables(t *testing.T, web *webgraph.Web, src string) []client.ResultTable {
	t.Helper()
	d := deploy(t, web, server.Options{})
	res, err := centralized.Run(d.Network(), "central/results", disql.MustParse(src), centralized.Options{})
	if err != nil {
		t.Fatalf("centralized reference: %v", err)
	}
	return res.Tables
}

// plannerWeb is a small three-level tree where every page carries the
// marker token, so expected answers are exact.
func plannerWeb() *webgraph.Web {
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 2, Depth: 2, PagesPerSite: 1,
		MarkerFrac: 1.0, FillerWords: 30, Seed: 3,
	})
}

const plannerRoot = "http://t0.example/p0.html"

// plannerQueries covers the PR-7 grammar end-to-end: scalar aggregate,
// group-by, order-by+limit and a two-variable self-join, all over the
// same reachable set of 7 marker pages.
func plannerQueries() []string {
	contains := fmt.Sprintf("d.text contains %q", webgraph.Marker)
	return []string{
		// scalar count over every reachable page
		fmt.Sprintf(`select count(d.url) from document d such that %q N|(G*2) d where %s`, plannerRoot, contains),
		// group by a final-stage key
		fmt.Sprintf(`select d.url, count(*) from document d such that %q N|(G*2) d where %s group by d.url`, plannerRoot, contains),
		// non-grouped order-by + limit (per-node top-K pushdown)
		fmt.Sprintf(`select d.url from document d such that %q N|(G*2) d where %s order by d.url desc limit 3`, plannerRoot, contains),
		// min/max aggregates
		fmt.Sprintf(`select min(d.url), max(d.length) from document d such that %q N|(G*2) d where %s`, plannerRoot, contains),
		// two-variable self-join on anchor labels (each page's child
		// labels are distinct, so the join pairs each anchor with itself)
		fmt.Sprintf(`select a.href, b.href from document d such that %q N|(G*1) d, anchor a, anchor b where a.label = b.label`, plannerRoot),
	}
}

// TestPlannerDifferential is the central acceptance property: for every
// query shape, the sites' folds followed by the user-site's merge give
// the reference answer of the centralized baseline, on the tree web and
// on campus.
func TestPlannerDifferential(t *testing.T) {
	webs := []struct {
		name  string
		build func() *webgraph.Web
		srcs  []string
	}{
		{"tree", plannerWeb, plannerQueries()},
		{"campus", webgraph.Campus, []string{
			webgraph.CampusDISQL,
			`select d1.url, count(r.text) from document d0 such that "http://csa.iisc.ernet.in/index.html" L d0,
			 where d0.title contains "lab"
			      document d1 such that d0 G·(L*1) d1,
			      relinfon r such that r.delimiter = "hr",
			 where (r.text contains "convener")
			 group by d1.url order by d1.url`,
		}},
	}
	for _, wb := range webs {
		for i, src := range wb.srcs {
			q := run(t, deploy(t, wb.build(), server.Options{}), src)
			if got, want := renderResults(q), reference(t, wb.build(), src); got != want {
				t.Errorf("%s query %d: engine differs from the reference\nengine:\n%s\nreference:\n%s", wb.name, i, got, want)
			}
		}
	}
}

// TestGroupedQueryValues pins the actual aggregate values, of the engine
// and of the reference alike, so the differential test cannot pass
// vacuously.
func TestGroupedQueryValues(t *testing.T) {
	d := deploy(t, plannerWeb(), server.Options{})
	// finals returns the final table of the engine's answer and of the
	// reference answer to query i of plannerQueries.
	finals := func(i int) map[string]client.ResultTable {
		src := plannerQueries()[i]
		eng, ref := run(t, d, src).Results(), referenceTables(t, plannerWeb(), src)
		return map[string]client.ResultTable{"engine": eng[len(eng)-1], "reference": ref[len(ref)-1]}
	}
	urls := append([]string{}, d.Web().URLs()...)
	sort.Sort(sort.Reverse(sort.StringSlice(urls)))

	for who, last := range finals(0) {
		// All 7 pages hold the marker.
		if len(last.Rows) != 1 || last.Rows[0][0] != "7" {
			t.Errorf("%s: count(d.url) = %+v, want one row [7]", who, last)
		}
		if last.Cols[0] != "count(d.url)" {
			t.Errorf("%s: cols = %v", who, last.Cols)
		}
	}
	for who, last := range finals(1) {
		// Group by url: one group per page, count(*) = 1 each.
		if len(last.Rows) != 7 {
			t.Errorf("%s: group-by rows = %+v", who, last.Rows)
		}
		for _, r := range last.Rows {
			if r[1] != "1" {
				t.Errorf("%s: group %q count = %q, want 1", who, r[0], r[1])
			}
		}
	}
	for who, last := range finals(2) {
		// Top-3 urls descending.
		var got []string
		for _, r := range last.Rows {
			got = append(got, r[0])
		}
		if !reflect.DeepEqual(got, urls[:3]) {
			t.Errorf("%s: top-3 desc = %v, want %v", who, got, urls[:3])
		}
	}
	for who, last := range finals(4) {
		// Self-join at the root: one row per anchor, href paired with
		// itself (labels are distinct per page).
		for _, r := range last.Rows {
			if r[0] != r[1] {
				t.Errorf("%s: join row %v: labels are unique, hrefs must match", who, r)
			}
		}
		if len(last.Rows) == 0 {
			t.Errorf("%s: self-join produced no rows", who)
		}
	}
}

// TestGroupedEqualValuesAcrossSites: two sites answer the group key as
// "1" and "1.0", which compare equal. Each site folds its own row, so
// only the user-site's merge can put them in one group; it must, as the
// reference fold does, and show the group as "1".
func TestGroupedEqualValuesAcrossSites(t *testing.T) {
	web := func() *webgraph.Web {
		w := webgraph.NewWeb()
		w.NewPage("http://a.example/index.html", "1").AddLink("http://b.example/index.html", "b")
		w.NewPage("http://b.example/index.html", "1.0")
		return w
	}
	src := `select d.title, count(*) from document d such that "http://a.example/index.html" N|G d group by d.title`
	got, want := renderResults(run(t, deploy(t, web(), server.Options{}), src)), reference(t, web(), src)
	if got != want {
		t.Errorf("engine differs from the reference\nengine:\n%s\nreference:\n%s", got, want)
	}
	ref := referenceTables(t, web(), src)
	if rows := ref[len(ref)-1].Rows; !reflect.DeepEqual(rows, [][]string{{"1", "2"}}) {
		t.Errorf("reference rows = %q, want one group [1 2]", rows)
	}
}

// TestPlannerParityTCP runs the full query set over real sockets and
// requires the reference answer: plan fragments and partial tables must
// survive the wire.
func TestPlannerParityTCP(t *testing.T) {
	for i, src := range plannerQueries() {
		tcp, err := NewDeployment(Config{
			Web:  plannerWeb(),
			Exec: ExecConfig{Transport: netsim.NewTCP()},
		})
		if err != nil {
			t.Fatal(err)
		}
		qt, err := tcp.Run(src, waitFor)
		if err != nil {
			tcp.Close()
			t.Fatalf("query %d over TCP: %v", i, err)
		}
		if got, want := renderResults(qt), reference(t, plannerWeb(), src); got != want {
			t.Errorf("query %d: TCP differs from the reference\ntcp:\n%s\nreference:\n%s", i, got, want)
		}
		tcp.Close()
	}
}

// TestPlannerDifferentialFaults replays the T11 fault schedule (5%
// drop, seeded, retry policy that is known to recover fully): the folded
// answer must still be the complete reference answer.
func TestPlannerDifferentialFaults(t *testing.T) {
	retry := server.RetryPolicy{
		Attempts: 5,
		Base:     time.Millisecond,
		Max:      20 * time.Millisecond,
		Timeout:  500 * time.Millisecond,
	}
	for _, seed := range []int64{1, 2} {
		web := func() *webgraph.Web {
			return webgraph.Tree(webgraph.TreeOpts{
				Fanout: 3, Depth: 3, PagesPerSite: 1,
				MarkerFrac: 0.6, FillerWords: 30, Seed: seed,
			})
		}
		src := fmt.Sprintf(
			`select d.url, count(*) from document d such that %q N|(G*3) d where d.text contains %q group by d.url order by d.url`,
			web().First(), webgraph.Marker)

		d, err := NewDeployment(Config{
			Web: web(),
			Net: netsim.Options{Faults: netsim.FaultPlan{Seed: seed, Drop: 0.05, Sever: 0.01}},
			Exec: ExecConfig{
				Server:    server.Options{Retry: retry},
				ReapGrace: 2 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		q, err := d.Run(src, 30*time.Second)
		if err != nil {
			d.Close()
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := renderResults(q)
		d.Close()
		if want := reference(t, web(), src); got != want {
			t.Errorf("seed %d: the answer under faults differs from the reference\nengine:\n%s\nreference:\n%s",
				seed, got, want)
		}
	}
}

// TestScalarCountStar pins count(*): the parser synthesizes a base
// projection for it, so every matching node still contributes one row.
func TestScalarCountStar(t *testing.T) {
	src := fmt.Sprintf(`select count(*) from document d such that %q N|(G*2) d where d.text contains %q`, plannerRoot, webgraph.Marker)
	q := run(t, deploy(t, plannerWeb(), server.Options{}), src)
	res := q.Results()
	last := res[len(res)-1]
	if len(last.Rows) != 1 || last.Rows[0][0] != "7" {
		t.Errorf("count(*) = %+v, want [7]", last)
	}
	if got, want := renderResults(q), reference(t, plannerWeb(), src); got != want {
		t.Errorf("engine differs from the reference\nengine:\n%s\nreference:\n%s", got, want)
	}
}

// TestPushdownMetrics pins what the sites' folds are for: counting the
// marker pages' text ships one partial count per node instead of the
// text, so it moves fewer bytes than selecting the text over the same
// traversal, and the fold is booked in PushdownHits and
// PushdownBytesSaved. Row scan and emit counters accumulate either way.
func TestPushdownMetrics(t *testing.T) {
	from := fmt.Sprintf(`from document d such that %q N|(G*2) d where d.text contains %q`, plannerRoot, webgraph.Marker)
	counted, selected := deploy(t, plannerWeb(), server.Options{}), deploy(t, plannerWeb(), server.Options{})
	run(t, counted, "select count(d.text) "+from)
	run(t, selected, "select d.text "+from)

	sn := counted.Metrics().Snapshot()
	if sn.PushdownHits == 0 || sn.PushdownBytesSaved <= 0 {
		t.Errorf("PushdownHits = %d, PushdownBytesSaved = %d for a text count", sn.PushdownHits, sn.PushdownBytesSaved)
	}
	if sn.RowsScanned == 0 || sn.RowsEmitted == 0 {
		t.Errorf("row counters empty: scanned=%d emitted=%d", sn.RowsScanned, sn.RowsEmitted)
	}
	if sn.RowsEmitted > sn.RowsScanned {
		t.Errorf("emitted %d > scanned %d", sn.RowsEmitted, sn.RowsScanned)
	}
	if n := selected.Metrics().Snapshot().PushdownHits; n != 0 {
		t.Errorf("a query without an output contract recorded %d pushdown hits", n)
	}
	cb := counted.Network().Stats().Snapshot().Total().Bytes
	sb := selected.Network().Stats().Snapshot().Total().Bytes
	t.Logf("count(d.text): %d B; select d.text: %d B", cb, sb)
	if cb >= sb {
		t.Errorf("count(d.text) moved %d B, select d.text %d B", cb, sb)
	}
}
