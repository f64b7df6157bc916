package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"webdis/internal/client"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

func plannerOn() server.Options {
	return server.Options{Planner: server.PlannerOptions{Enabled: true}}
}

// renderResults flattens a query's result tables into a canonical,
// order-insensitive string for cross-configuration comparison (row
// order within a stage is already deterministic — sorted or
// order-by-driven — so this keeps it).
func renderResults(q *client.Query) string {
	var b strings.Builder
	for _, t := range q.Results() {
		fmt.Fprintf(&b, "stage %d [%s]\n", t.Stage, strings.Join(t.Cols, ","))
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "  %q\n", r)
		}
	}
	return b.String()
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
// query shape, the cost-based planner must be invisible in the results —
// planner-on output equals naive-shipping output, on the tree web and
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
			naive := deploy(t, wb.build(), server.Options{})
			qn := run(t, naive, src)
			planned := deploy(t, wb.build(), plannerOn())
			qp := run(t, planned, src)
			if got, want := renderResults(qp), renderResults(qn); got != want {
				t.Errorf("%s query %d: planner changed the answer\nplanner:\n%s\nnaive:\n%s", wb.name, i, got, want)
			}
		}
	}
}

// TestGroupedQueryValues pins the actual aggregate values so the
// differential test cannot pass vacuously.
func TestGroupedQueryValues(t *testing.T) {
	for _, opts := range []server.Options{{}, plannerOn()} {
		d := deploy(t, plannerWeb(), opts)

		// All 7 pages hold the marker.
		q := run(t, d, plannerQueries()[0])
		res := q.Results()
		last := res[len(res)-1]
		if len(last.Rows) != 1 || last.Rows[0][0] != "7" {
			t.Fatalf("count(d.url) = %+v, want one row [7]", last)
		}
		if last.Cols[0] != "count(d.url)" {
			t.Errorf("cols = %v", last.Cols)
		}

		// Group by url: one group per page, count(*) = 1 each.
		q = run(t, d, plannerQueries()[1])
		res = q.Results()
		last = res[len(res)-1]
		if len(last.Rows) != 7 {
			t.Fatalf("group-by rows = %+v", last.Rows)
		}
		for _, r := range last.Rows {
			if r[1] != "1" {
				t.Errorf("group %q count = %q, want 1", r[0], r[1])
			}
		}

		// Top-3 urls descending.
		q = run(t, d, plannerQueries()[2])
		res = q.Results()
		last = res[len(res)-1]
		urls := append([]string{}, d.Web().URLs()...)
		sort.Sort(sort.Reverse(sort.StringSlice(urls)))
		want := urls[:3]
		var got []string
		for _, r := range last.Rows {
			got = append(got, r[0])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("top-3 desc = %v, want %v", got, want)
		}

		// Self-join at the root: one row per anchor, href paired with
		// itself (labels are distinct per page).
		q = run(t, d, plannerQueries()[4])
		res = q.Results()
		last = res[len(res)-1]
		for _, r := range last.Rows {
			if r[0] != r[1] {
				t.Errorf("join row %v: labels are unique, hrefs must match", r)
			}
		}
		if len(last.Rows) == 0 {
			t.Error("self-join produced no rows")
		}
	}
}

// TestPlannerParityTCP runs the full query set over real sockets and
// requires byte-identical output with the in-process pipe transport,
// planner on — gob-carried plan fragments and stats must survive the
// wire.
func TestPlannerParityTCP(t *testing.T) {
	for i, src := range plannerQueries() {
		pipe := deploy(t, plannerWeb(), plannerOn())
		qp := run(t, pipe, src)

		tcp, err := NewDeployment(Config{
			Web: plannerWeb(),
			Exec: ExecConfig{
				Server:    plannerOn(),
				Transport: netsim.NewTCP(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		qt, err := tcp.Run(src, waitFor)
		if err != nil {
			tcp.Close()
			t.Fatalf("query %d over TCP: %v", i, err)
		}
		if got, want := renderResults(qt), renderResults(qp); got != want {
			t.Errorf("query %d: TCP differs from pipe\ntcp:\n%s\npipe:\n%s", i, got, want)
		}
		tcp.Close()
	}
}

// TestPlannerDifferentialFaults replays the T11 fault schedule (5%
// drop, seeded, retry policy that is known to recover fully) with the
// planner on and off: both must still deliver the complete answer.
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

		var rendered []string
		for _, opts := range []server.Options{{Retry: retry}, {Retry: retry, Planner: server.PlannerOptions{Enabled: true}}} {
			d, err := NewDeployment(Config{
				Web: web(),
				Net: netsim.Options{Faults: netsim.FaultPlan{Seed: seed, Drop: 0.05, Sever: 0.01}},
				Exec: ExecConfig{
					Server:    opts,
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
			rendered = append(rendered, renderResults(q))
			d.Close()
		}
		if rendered[0] != rendered[1] {
			t.Errorf("seed %d: planner changed the answer under faults\nnaive:\n%s\nplanner:\n%s",
				seed, rendered[0], rendered[1])
		}
	}
}

// TestShipDataEdges exercises the other half of the cost model: with
// document hosts running (NoDocService false), warmed statistics and a
// bias that makes fetching cheap, some traversal edges flip to data
// shipping — and the answer still matches naive shipping.
func TestShipDataEdges(t *testing.T) {
	build := func(opts server.Options) (*Deployment, *client.Query) {
		d, err := NewDeployment(Config{Web: plannerWeb(), Exec: ExecConfig{Server: opts}})
		if err != nil {
			t.Fatal(err)
		}
		src := plannerQueries()[0]
		var q *client.Query
		// First run seeds the per-site statistics (cold start always
		// ships the query); later runs let the cost model see document
		// sizes. The client re-sends its learned stats on each submit.
		for i := 0; i < 3; i++ {
			q = run(t, d, src)
		}
		return d, q
	}

	naive, qn := build(server.Options{})
	defer naive.Close()
	planned, qp := build(server.Options{Planner: server.PlannerOptions{
		Enabled: true,
		// Strong bias toward data shipping so small tree documents lose
		// to clone overhead deterministically.
		ShipDataBias: 0.01,
	}})
	defer planned.Close()

	if got, want := renderResults(qp), renderResults(qn); got != want {
		t.Fatalf("ship-data changed the answer\nplanner:\n%s\nnaive:\n%s", got, want)
	}
	sn := planned.Metrics().Snapshot()
	if sn.ShipDataEdges == 0 {
		t.Fatalf("no traversal edge chose data shipping: %+v", sn)
	}
	if sn.ShipDataBytes == 0 {
		t.Error("ship-data edges fetched no foreign documents")
	}
	if n := naive.Metrics().Snapshot().ShipDataEdges; n != 0 {
		t.Errorf("naive deployment shipped data on %d edges", n)
	}
}

// TestScalarCountStar pins count(*): the parser synthesizes a base
// projection for it, so every matching node still contributes one row.
func TestScalarCountStar(t *testing.T) {
	for _, opts := range []server.Options{{}, plannerOn()} {
		d := deploy(t, plannerWeb(), opts)
		src := fmt.Sprintf(`select count(*) from document d such that %q N|(G*2) d where d.text contains %q`, plannerRoot, webgraph.Marker)
		q := run(t, d, src)
		res := q.Results()
		last := res[len(res)-1]
		if len(last.Rows) != 1 || last.Rows[0][0] != "7" {
			t.Errorf("planner=%v: count(*) = %+v, want [7]", opts.Planner.Enabled, last)
		}
	}
}

// TestPushdownMetrics asserts the statistics satellite: grouped queries
// with the planner on record pushdown hits and bytes saved, and row
// scan/emit counters accumulate on every deployment.
func TestPushdownMetrics(t *testing.T) {
	d := deploy(t, plannerWeb(), plannerOn())
	run(t, d, plannerQueries()[1]) // group by d.url
	sn := d.Metrics().Snapshot()
	if sn.PushdownHits == 0 {
		t.Errorf("PushdownHits = 0 for a grouped query with planner on: %+v", sn)
	}
	if sn.RowsScanned == 0 || sn.RowsEmitted == 0 {
		t.Errorf("row counters empty: scanned=%d emitted=%d", sn.RowsScanned, sn.RowsEmitted)
	}
	if sn.RowsEmitted > sn.RowsScanned {
		t.Errorf("emitted %d > scanned %d", sn.RowsEmitted, sn.RowsScanned)
	}

	// Naive deployment: evaluation still counts rows, but no pushdown.
	dn := deploy(t, plannerWeb(), server.Options{})
	run(t, dn, plannerQueries()[1])
	snn := dn.Metrics().Snapshot()
	if snn.PushdownHits != 0 {
		t.Errorf("naive deployment recorded %d pushdown hits", snn.PushdownHits)
	}
	if snn.RowsScanned == 0 {
		t.Error("naive deployment recorded no scanned rows")
	}

	// What pushdown is for: counting the marker pages' text ships one
	// partial count per node instead of the text, for the same answer.
	src := fmt.Sprintf(`select count(d.text) from document d such that %q N|(G*2) d where d.text contains %q`,
		plannerRoot, webgraph.Marker)
	pushed, naive := deploy(t, plannerWeb(), plannerOn()), deploy(t, plannerWeb(), server.Options{})
	qp, qn := run(t, pushed, src), run(t, naive, src)
	if got, want := renderResults(qp), renderResults(qn); got != want {
		t.Fatalf("pushdown changed the answer\npushed:\n%s\nnaive:\n%s", got, want)
	}
	if saved := pushed.Metrics().Snapshot().PushdownBytesSaved; saved <= 0 {
		t.Errorf("PushdownBytesSaved = %d for a text count", saved)
	}
	pb := pushed.Network().Stats().Snapshot().Total().Bytes
	nb := naive.Network().Stats().Snapshot().Total().Bytes
	t.Logf("count(d.text): %d B pushed down, %d B naive", pb, nb)
	if pb >= nb {
		t.Errorf("pushdown moved %d B, naive shipping %d B", pb, nb)
	}
}
