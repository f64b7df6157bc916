package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/server"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
)

const waitFor = 10 * time.Second

// traversal is a finished query's Figure-7 sequence, read from the
// journals of a deployTraced deployment.
type traversal []trace.TraversalLine

// count tallies lines for node with the given action, skipping "virtual"
// records (stage advances at the same node, which are not clone arrivals).
func (tv traversal) count(node, action string) int {
	n := 0
	for _, l := range tv {
		if (node == "" || l.Node == node) && l.Action == action && l.Detail != "virtual" {
			n++
		}
	}
	return n
}

func deploy(t *testing.T, web *webgraph.Web, opts server.Options) *Deployment {
	t.Helper()
	return deployCfg(t, Config{Web: web, Exec: ExecConfig{Server: opts}})
}

// deployTraced is deploy with causal tracing armed.
func deployTraced(t *testing.T, web *webgraph.Web, opts server.Options) *Deployment {
	t.Helper()
	return deployCfg(t, Config{Web: web, Exec: ExecConfig{Server: opts, Trace: true}})
}

func deployCfg(t *testing.T, cfg Config) *Deployment {
	t.Helper()
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func run(t *testing.T, d *Deployment, src string) *client.Query {
	t.Helper()
	q, err := d.Run(src, waitFor)
	if err != nil {
		t.Fatalf("query failed: %v", err)
	}
	return q
}

func TestCampusQueryReproducesFigure8(t *testing.T) {
	d := deploy(t, webgraph.Campus(), server.Options{})
	q := run(t, d, webgraph.CampusDISQL)

	results := q.Results()
	if len(results) != 2 {
		t.Fatalf("result tables = %+v", results)
	}
	// Stage 1 (q1): exactly the laboratories page.
	q1 := results[0]
	if q1.Stage != 0 || len(q1.Rows) != 1 || q1.Rows[0][0] != webgraph.CampusLabs {
		t.Errorf("q1 = %+v", q1)
	}
	// Stage 2 (q2): the three convener rows of Figure 8.
	q2 := results[1]
	if len(q2.Cols) != 2 || q2.Cols[0] != "d1.url" || q2.Cols[1] != "r.text" {
		t.Errorf("q2 cols = %v", q2.Cols)
	}
	got := make(map[string]string)
	for _, row := range q2.Rows {
		got[row[0]] = row[1]
	}
	if len(got) != len(webgraph.CampusConveners) {
		t.Errorf("q2 rows = %+v, want %d labs", q2.Rows, len(webgraph.CampusConveners))
	}
	for url, line := range webgraph.CampusConveners {
		if !strings.Contains(got[url], line) {
			t.Errorf("%s: text %q missing %q", url, got[url], line)
		}
	}
	// The CHT protocol balanced: everything added was retired.
	st := q.Stats()
	if st.EntriesAdded != st.EntriesRetired {
		t.Errorf("CHT imbalance: added %d retired %d", st.EntriesAdded, st.EntriesRetired)
	}
	if q.LiveEntries() != 0 {
		t.Errorf("live entries = %d", q.LiveEntries())
	}
}

func TestFigure1Roles(t *testing.T) {
	d := deployTraced(t, webgraph.Figure1(), server.Options{})
	q := run(t, d, webgraph.Figure1DISQL)
	tr := traversal(d.Journey(q).Traversal())

	n := webgraph.Figure1Nodes
	// Nodes 1, 2, 3 are PureRouters.
	for _, i := range []int{1, 2, 3} {
		if tr.count(n[i], "route") != 1 || tr.count(n[i], "eval") != 0 {
			t.Errorf("node %d: routes=%d evals=%d", i, tr.count(n[i], "route"), tr.count(n[i], "eval"))
		}
	}
	// Node 4 acts twice as a ServerRouter (q1 and q2).
	if got := tr.count(n[4], "eval"); got != 2 {
		t.Errorf("node 4 evals = %d, want 2", got)
	}
	// Nodes 5 and 6 answer q1; node 8 answers q2.
	for _, i := range []int{5, 6, 8} {
		if got := tr.count(n[i], "eval"); got != 1 {
			t.Errorf("node %d evals = %d, want 1", i, got)
		}
	}
	// Node 7 is a dead end.
	if tr.count(n[7], "dead-end") != 1 {
		t.Errorf("node 7 dead-ends = %d", tr.count(n[7], "dead-end"))
	}
	// Node 8 receives a duplicate arrival (from nodes 4 and 6) and drops
	// one.
	if got := tr.count(n[8], "drop"); got != 1 {
		t.Errorf("node 8 drops = %d, want 1", got)
	}

	// Result rows: q1 answered by nodes 4, 5, 6; q2 by nodes 4 and 8.
	results := q.Results()
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	wantQ1 := map[string]bool{n[4]: true, n[5]: true, n[6]: true}
	if len(results[0].Rows) != 3 {
		t.Errorf("q1 rows = %+v", results[0].Rows)
	}
	for _, row := range results[0].Rows {
		if !wantQ1[row[0]] {
			t.Errorf("unexpected q1 row %v", row)
		}
	}
	wantQ2 := map[string]bool{n[4]: true, n[8]: true}
	if len(results[1].Rows) != 2 {
		t.Errorf("q2 rows = %+v", results[1].Rows)
	}
	for _, row := range results[1].Rows {
		if !wantQ2[row[0]] {
			t.Errorf("unexpected q2 row %v", row)
		}
	}

	m := d.Metrics().Snapshot()
	if m.DupDropped != 1 || m.DeadEnds != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestFigure5DuplicateSuppression(t *testing.T) {
	d := deployTraced(t, webgraph.Figure5(), server.Options{})
	tr := traversal(d.Journey(run(t, d, webgraph.Figure5DISQL)).Traversal())

	x := webgraph.Figure5X
	visits := tr.count(x, "route") + tr.count(x, "eval") + tr.count(x, "drop") + tr.count(x, "dead-end")
	if visits != 5 {
		t.Errorf("arrivals at X = %d, want 5 (a..e)", visits)
	}
	// a is a PureRouter pass, b evaluates q1, c evaluates q2; d, e dropped.
	if got := tr.count(x, "route"); got != 1 {
		t.Errorf("X routes = %d, want 1 (arrival a)", got)
	}
	if got := tr.count(x, "eval"); got != 2 {
		t.Errorf("X evals = %d, want 2 (arrivals b, c)", got)
	}
	if got := tr.count(x, "drop"); got != 2 {
		t.Errorf("X drops = %d, want 2 (arrivals d, e)", got)
	}
}

func TestFigure5WithoutLogTableRecomputes(t *testing.T) {
	d := deployTraced(t, webgraph.Figure5(), server.Options{Dedup: nodeproc.DedupOff, MaxHops: 16})
	tr := traversal(d.Journey(run(t, d, webgraph.Figure5DISQL)).Traversal())

	// Without the log table, arrivals d and e are recomputed.
	if got := tr.count(webgraph.Figure5X, "eval"); got != 4 {
		t.Errorf("X evals without dedup = %d, want 4 (b, c, d, e)", got)
	}
	if got := tr.count(webgraph.Figure5X, "drop"); got != 0 {
		t.Errorf("X drops without dedup = %d", got)
	}
}

func TestGlobalLinkExtraction(t *testing.T) {
	// The paper's Example Query 1 shape on the campus web: walk all local
	// links of the CSA site and return every global link.
	d := deploy(t, webgraph.Campus(), server.Options{})
	q := run(t, d, `
select a.base, a.href
from document d such that "http://csa.iisc.ernet.in/index.html" N|L* d,
     anchor a
where a.ltype = "G"`)
	results := q.Results()
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	// The CSA site's global links: homepage -> IISc, labs -> 5 lab/institute links.
	bases := map[string]int{}
	for _, row := range results[0].Rows {
		bases[row[0]]++
	}
	if bases[webgraph.CampusStart] != 1 {
		t.Errorf("homepage global links = %d, want 1", bases[webgraph.CampusStart])
	}
	if bases[webgraph.CampusLabs] != 5 {
		t.Errorf("labs global links = %d, want 5", bases[webgraph.CampusLabs])
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	webs := map[string]*webgraph.Web{
		"campus":  webgraph.Campus(),
		"figure1": webgraph.Figure1(),
		"random":  webgraph.Random(webgraph.RandomOpts{Sites: 5, PagesPerSite: 4, LocalOut: 2, GlobalOut: 2, MarkerFrac: 0.4, Seed: 11}),
	}
	queries := map[string]string{
		"campus":  webgraph.CampusDISQL,
		"figure1": webgraph.Figure1DISQL,
		"random": `
select d.url
from document d such that "http://r0.example/p0.html" N|(L|G)*3 d
where d.text contains "` + webgraph.Marker + `"`,
	}
	// The query servers, the hybrid fallback (no site participates, so it
	// visits every node) and the servers under the strict dead-end rule,
	// each against the centralized baseline under the same rules.
	legs := []struct {
		name string
		exec ExecConfig
		cent centralized.Options
	}{
		{"servers", ExecConfig{}, centralized.Options{}},
		{"fallback", ExecConfig{Participate: participants()}, centralized.Options{}},
		{"strict", ExecConfig{Server: server.Options{StrictDeadEnds: true}}, centralized.Options{StrictDeadEnds: true}},
	}
	for _, leg := range legs {
		for webName, web := range webs {
			name := leg.name + "/" + webName
			d := deployCfg(t, Config{Web: web, Exec: leg.exec})
			q := run(t, d, queries[webName])
			distRes := q.Results()

			w := disql.MustParse(queries[webName])
			centRes, err := centralized.Run(d.Network(), "central/results", w, leg.cent)
			if err != nil {
				t.Fatalf("%s: centralized: %v", name, err)
			}
			if len(distRes) != len(centRes.Tables) {
				t.Fatalf("%s: table count %d vs %d", name, len(distRes), len(centRes.Tables))
			}
			for i := range distRes {
				a, b := distRes[i], centRes.Tables[i]
				if a.Stage != b.Stage || len(a.Rows) != len(b.Rows) {
					t.Fatalf("%s stage %d: %d rows vs %d rows\n%v\n%v", name, a.Stage, len(a.Rows), len(b.Rows), a.Rows, b.Rows)
				}
				for j := range a.Rows {
					if strings.Join(a.Rows[j], "|") != strings.Join(b.Rows[j], "|") {
						t.Errorf("%s stage %d row %d: %v vs %v", name, a.Stage, j, a.Rows[j], b.Rows[j])
					}
				}
			}
		}
	}
}

func TestQueryShippingMovesNoDocuments(t *testing.T) {
	web := webgraph.Campus()
	d := deploy(t, web, server.Options{})
	run(t, d, webgraph.CampusDISQL)

	// No fetch traffic at all in a distributed run.
	dist := d.Network().Stats().Snapshot().Total()
	if dist.ByKind["fetch-req"] != 0 || dist.ByKind["fetch-resp"] != 0 {
		t.Errorf("document fetches in distributed run: %+v", dist.ByKind)
	}

	// The same query by data shipping moves the visited documents across
	// the network; query shipping must transfer substantially less.
	d.Network().Stats().Reset()
	w := disql.MustParse(webgraph.CampusDISQL)
	res, err := centralized.Run(d.Network(), "central/results", w, centralized.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cent := d.Network().Stats().Snapshot().Total()
	if res.Stats.BytesDownloaded == 0 {
		t.Fatal("centralized run downloaded nothing")
	}
	if dist.Bytes*2 >= cent.Bytes {
		t.Errorf("query shipping %d B vs data shipping %d B: want at least 2x less", dist.Bytes, cent.Bytes)
	}
}

// TestCancelPassiveTermination: cancelling one query of a client cuts its
// remote work off within a hop although the collector it reports to stays
// open. On a long chain that never comes back to a site, with per-message
// latency well above a page's service time, nothing sent after the cancel
// can catch the clone — so what stops it has to be waiting at the next
// site already. A site that never reported to this client opens its
// session with the report and has it refused (the failed dispatch of
// Section 2.8); a site that holds a session was told to stop when the
// query was cancelled.
func TestCancelPassiveTermination(t *testing.T) {
	const chain = `
select d.url
from document d such that "http://c0.example/p0.html" N|G* d`
	cancelMidFlight := func(t *testing.T, d *Deployment) (*client.Query, server.Snapshot) {
		before := d.Metrics().Snapshot()
		q, err := d.SubmitDISQL(chain)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond) // let it get a few hops in
		q.Cancel()
		if err := q.Wait(time.Second); err != client.ErrCancelled {
			t.Fatalf("Wait = %v", err)
		}
		// Within a bounded time every clone is purged: some server observed
		// a failed result dispatch or retired a stopped clone.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if m := d.Metrics(); m.Terminated.Load()+m.Stopped.Load() > before.Terminated+before.Stopped {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // a runaway clone would keep evaluating
		m := d.Metrics().Snapshot()
		m.Evaluations -= before.Evaluations
		m.Terminated -= before.Terminated
		m.Stopped -= before.Stopped
		t.Logf("evaluations %d, terminated %d, stopped %d, stops sent %d",
			m.Evaluations, m.Terminated, m.Stopped, q.Stats().StopsSent)
		// The query never reached the end of the chain.
		if m.Evaluations >= 40 {
			t.Errorf("evaluations = %d; cancellation had no effect", m.Evaluations)
		}
		return q, m
	}
	deploy := func(t *testing.T) *Deployment {
		d, err := NewDeployment(Config{
			Web: webgraph.Chain(40, 1, 3),
			Net: netsim.Options{Latency: 3 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}

	t.Run("first contact", func(t *testing.T) {
		d := deploy(t)
		q, m := cancelMidFlight(t, d)
		if m.Terminated == 0 {
			t.Error("no server observed the passive termination signal")
		}
		// Nothing chases the clone: a stop goes only to a site that has
		// reported, and each of those evaluated at least once.
		if stops := int64(q.Stats().StopsSent); stops > m.Evaluations {
			t.Errorf("%d stops sent against %d evaluations", stops, m.Evaluations)
		}
		// The deployment is still usable: the collector was not closed.
		if q, err := d.Run(chain, 5*time.Second); err != nil || len(q.Results()[0].Rows) != 40 {
			t.Errorf("query after the cancel: %v", err)
		}
	})
	t.Run("established sessions", func(t *testing.T) {
		d := deploy(t)
		if _, err := d.Run(chain, 5*time.Second); err != nil { // every site now holds a session
			t.Fatal(err)
		}
		q, m := cancelMidFlight(t, d)
		if m.Stopped == 0 {
			t.Error("no server retired a stopped clone")
		}
		if m.Terminated != 0 {
			t.Errorf("Terminated = %d: no report on an established session can fail", m.Terminated)
		}
		if got := q.Stats().StopsSent; got != 40 {
			t.Errorf("StopsSent = %d, want one per site holding a session (40)", got)
		}
	})
}

// TestClientClosePassiveTermination: closing the client mid-flight is the
// paper's Section 2.8 — no termination message is sent; the clone dies at
// the next site, whose result dispatch fails.
func TestClientClosePassiveTermination(t *testing.T) {
	web := webgraph.Chain(40, 1, 3)
	d, err := NewDeployment(Config{
		Web: web,
		Net: netsim.Options{Latency: 3 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q, err := d.SubmitDISQL(`
select d.url
from document d such that "http://c0.example/p0.html" N|G* d`)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it get a few hops in
	d.Client().Close()
	if err := q.Wait(time.Second); err != client.ErrCancelled {
		t.Fatalf("Wait = %v", err)
	}

	// Within a bounded time every clone is purged: some server observed a
	// failed result dispatch.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.Metrics().Terminated.Load() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := d.Metrics().Snapshot()
	if m.Terminated == 0 {
		t.Error("no server observed the passive termination signal")
	}
	if q.Stats().StopsSent != 0 || m.Stopped != 0 {
		t.Errorf("passive termination sent %d stops, %d clones stopped", q.Stats().StopsSent, m.Stopped)
	}
	// The query never reached the end of the chain.
	if m.Evaluations >= 40 {
		t.Errorf("evaluations = %d; closing the client had no effect", m.Evaluations)
	}
	if _, err := d.SubmitDISQL(`select d.url from document d such that "http://c0.example/p0.html" N d`); !errors.Is(err, client.ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestMultipleStartNodes(t *testing.T) {
	d := deploy(t, webgraph.Figure1(), server.Options{})
	q := run(t, d, `
select d.url
from document d such that ("http://s2.example/n2.html", "http://s3.example/n3.html") G|L d
where d.url contains "example"`)
	rows := q.Results()[0].Rows
	if len(rows) != 4 {
		t.Errorf("rows = %+v, want nodes 4,5,6,7", rows)
	}
}

// TestDuplicateStartNodes: a StartNode listed twice is one arrival. A site
// evaluates a destination once per clone, so a second CHT entry for the
// same node and state would never be retired and the query never finish.
func TestDuplicateStartNodes(t *testing.T) {
	d := deploy(t, webgraph.Figure1(), server.Options{})
	q, err := d.Run(`
select d.url
from document d such that ("http://s2.example/n2.html", "http://s2.example/n2.html", "http://s3.example/n3.html") G|L d
where d.url contains "example"`, 2*time.Second)
	if err != nil {
		t.Fatalf("query with a repeated StartNode: %v (%d CHT entries live)", err, q.LiveEntries())
	}
	if rows := q.Results()[0].Rows; len(rows) != 4 {
		t.Errorf("rows = %+v, want nodes 4,5,6,7", rows)
	}
}

func TestStrictDeadEndsSuppressContinuation(t *testing.T) {
	// Under the literal Figure-4 pseudocode the campus query loses the
	// conveners that sit one local link behind a lab homepage without its
	// own convener.
	d := deploy(t, webgraph.Campus(), server.Options{StrictDeadEnds: true})
	q := run(t, d, webgraph.CampusDISQL)
	results := q.Results()
	var q2rows int
	for _, rt := range results {
		if rt.Stage == 1 {
			q2rows = len(rt.Rows)
		}
	}
	if q2rows != 1 {
		t.Errorf("strict mode q2 rows = %d, want only the on-homepage convener", q2rows)
	}
}

func TestSequentialQueriesOnOneDeployment(t *testing.T) {
	d := deploy(t, webgraph.Campus(), server.Options{})
	for i := 0; i < 3; i++ {
		q := run(t, d, webgraph.CampusDISQL)
		if len(q.Results()) != 2 {
			t.Fatalf("iteration %d: results = %+v", i, q.Results())
		}
	}
	// Each query has a distinct ID, so the log table kept them apart.
	m := d.Metrics().Snapshot()
	if m.DupDropped != 0 {
		t.Errorf("cross-query false duplicates: %d", m.DupDropped)
	}
}

func TestConcurrentQueries(t *testing.T) {
	d := deploy(t, webgraph.Campus(), server.Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := d.SubmitDISQL(webgraph.CampusDISQL)
			if err != nil {
				errs <- err
				return
			}
			if err := q.Wait(waitFor); err != nil {
				errs <- err
				return
			}
			if len(q.Results()) != 2 {
				errs <- fmt.Errorf("got %d result tables", len(q.Results()))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUnknownStartSiteFails(t *testing.T) {
	d := deploy(t, webgraph.Campus(), server.Options{})
	_, err := d.Run(`select d.url from document d such that "http://nowhere.example/x.html" L d`, waitFor)
	if err == nil {
		t.Fatal("dispatch to unknown site should fail")
	}
}

func TestFloatingLinkDetection(t *testing.T) {
	// The paper's maintenance application: a site with a link to a
	// non-existent document. The engine records a DocError and the query
	// still completes.
	web := webgraph.NewWeb()
	p := web.NewPage("http://a.example/index.html", "Home")
	p.AddText("has a floating link")
	p.AddLink("/gone.html", "missing")
	d := deploy(t, web, server.Options{})
	q := run(t, d, `
select d.url
from document d such that "http://a.example/index.html" N|L d`)
	if got := d.Metrics().DocErrors.Load(); got != 1 {
		t.Errorf("DocErrors = %d", got)
	}
	if rows := q.Results()[0].Rows; len(rows) != 1 {
		t.Errorf("rows = %v", rows)
	}
}

func TestDocServiceOptional(t *testing.T) {
	d, err := NewDeployment(Config{Web: webgraph.Campus(), Exec: ExecConfig{NoDocService: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.Run(webgraph.CampusDISQL, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Results()) != 2 {
		t.Error("distributed engine must not depend on the doc service")
	}
	// But the centralized baseline does.
	w := disql.MustParse(webgraph.CampusDISQL)
	res, err := centralized.Run(d.Network(), "central/results", w, centralized.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 0 {
		t.Error("centralized run without doc service should find nothing")
	}
}

func TestCentralizedCacheAblation(t *testing.T) {
	web := webgraph.Figure5()
	w := disql.MustParse(webgraph.Figure5DISQL)
	d := deploy(t, web, server.Options{})

	with, err := centralized.Run(d.Network(), "c1/results", w, centralized.Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := centralized.Run(d.Network(), "c2/results", w, centralized.Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Stats.Fetches >= without.Stats.Fetches {
		t.Errorf("cache should reduce fetches: %d vs %d", with.Stats.Fetches, without.Stats.Fetches)
	}
	if with.Stats.CacheHits == 0 {
		t.Error("expected cache hits on the multiply-visited node")
	}
}

func TestFetcherSeesSameBytes(t *testing.T) {
	web := webgraph.Campus()
	d := deploy(t, web, server.Options{})
	f := webserver.NewFetcher(d.Network(), "probe")
	got, err := f.Get(webgraph.CampusLabs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := web.HTML(webgraph.CampusLabs)
	if string(got) != string(want) {
		t.Error("fetched bytes differ from corpus")
	}
}

func TestIndexStartNodes(t *testing.T) {
	// The paper's Section 1.1 automated StartNode path: the index resolves
	// "laboratories" to the Labs page, and the convener query runs from
	// there without the user knowing any URL.
	d := deploy(t, webgraph.Campus(), server.Options{})
	q := run(t, d, `
select d0.url, d1.url, r.text
from document d0 such that index("laboratories department") N d0,
where d0.title contains "lab"
     document d1 such that d0 G·(L*1) d1,
     relinfon r such that r.delimiter = "hr",
where (r.text contains "convener")`)
	results := q.Results()
	if len(results) != 2 || len(results[1].Rows) != 3 {
		t.Fatalf("results = %+v", results)
	}
	// A term matching nothing fails at submission.
	if _, err := d.Run(`select d.url from document d such that index("zzzznope") N d`, waitFor); err == nil {
		t.Error("unresolvable index term should fail")
	}
}

// TestCorrelatedStages exercises the footnote-2 extension end to end: the
// second node-query's predicate references the first stage's document.
func TestCorrelatedStages(t *testing.T) {
	web := webgraph.NewWeb()
	hub := web.NewPage("http://hub.example/index.html", "Hub")
	hub.AddLink("http://alpha.example/t.html", "topic alpha")
	hub.AddLink("http://beta.example/t.html", "topic beta")
	a := web.NewPage("http://alpha.example/t.html", "Alpha Topic")
	a.AddText("About alpha things.")
	a.AddLink("/alpha-deep.html", "deep")
	a.AddLink("/other.html", "other")
	web.NewPage("http://alpha.example/alpha-deep.html", "More Alpha Topic detail").AddText("deep alpha")
	web.NewPage("http://alpha.example/other.html", "Unrelated").AddText("nothing")
	b := web.NewPage("http://beta.example/t.html", "Beta Topic")
	b.AddText("About beta things.")
	b.AddLink("/beta-deep.html", "deep")
	web.NewPage("http://beta.example/beta-deep.html", "More Beta Topic detail").AddText("deep beta")

	d := deploy(t, web, server.Options{})
	// Find pages one local link behind each topic page whose title
	// contains the *topic page's own title* — a correlated join across
	// stages: alpha-deep matches only under alpha, beta-deep only under
	// beta, "Unrelated" never.
	q := run(t, d, `
select d0.url, d1.url
from document d0 such that "http://hub.example/index.html" G d0,
where d0.title contains "Topic"
     document d1 such that d0 L d1
where d1.title contains d0.title`)
	results := q.Results()
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	got := map[string]bool{}
	for _, row := range results[1].Rows {
		got[row[0]] = true
	}
	want := []string{"http://alpha.example/alpha-deep.html", "http://beta.example/beta-deep.html"}
	if len(got) != len(want) {
		t.Fatalf("q2 rows = %+v", results[1].Rows)
	}
	for _, u := range want {
		if !got[u] {
			t.Errorf("missing correlated match %s", u)
		}
	}

	// The centralized baseline computes the same correlated join.
	w := disql.MustParse(`
select d0.url, d1.url
from document d0 such that "http://hub.example/index.html" G d0,
where d0.title contains "Topic"
     document d1 such that d0 L d1
where d1.title contains d0.title`)
	if len(w.Stages[1].Query.Outer) != 1 || w.Stages[0].Export[0] != "title" {
		t.Fatalf("outer/export wiring: %+v / %+v", w.Stages[1].Query.Outer, w.Stages[0].Export)
	}
	cent, err := centralized.Run(d.Network(), "central/results", w, centralized.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cent.Tables) != 2 || len(cent.Tables[1].Rows) != 2 {
		t.Fatalf("centralized = %+v", cent.Tables)
	}
}

// TestCorrelatedStagesHybrid runs the correlated join through the hybrid
// fallback: bindings must survive the bounce to the user-site.
func TestCorrelatedStagesHybrid(t *testing.T) {
	web := webgraph.NewWeb()
	hub := web.NewPage("http://hub.example/index.html", "Hub")
	hub.AddLink("http://alpha.example/t.html", "alpha")
	a := web.NewPage("http://alpha.example/t.html", "Alpha Topic")
	a.AddLink("/deep.html", "deep")
	web.NewPage("http://alpha.example/deep.html", "Alpha Topic deep").AddText("x")

	d, err := NewDeployment(Config{
		Web: web,
		Exec: ExecConfig{
			Participate: func(site string) bool { return site == "hub.example" },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.Run(`
select d1.url
from document d0 such that "http://hub.example/index.html" G d0,
where d0.title contains "Topic"
     document d1 such that d0 L d1
where d1.title contains d0.title`, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	rows := q.Results()[0].Rows
	if len(rows) != 1 || rows[0][0] != "http://alpha.example/deep.html" {
		t.Fatalf("rows = %v", rows)
	}
	if q.FallbackStats().Evaluations == 0 {
		t.Error("the fallback should have evaluated the correlated stage")
	}
}

func TestDeploymentAccessors(t *testing.T) {
	web := webgraph.Campus()
	d := deploy(t, web, server.Options{})
	if d.Web() != web {
		t.Error("Web accessor")
	}
	if d.Client() == nil || d.Network() == nil || d.Metrics() == nil {
		t.Error("nil accessor")
	}
	if s := d.Server("csa.iisc.ernet.in"); s == nil || s.Site() != "csa.iisc.ernet.in" {
		t.Error("Server accessor")
	}
	if s := d.Server("nosuch.example"); s != nil {
		t.Error("unknown site should be nil")
	}
	if h := d.Host("csa.iisc.ernet.in"); h == nil || len(h.URLs()) != 5 {
		t.Error("Host accessor")
	}
	if lt := d.Server("csa.iisc.ernet.in").LogTable(); lt == nil || lt.Mode() != nodeproc.DedupSubsume {
		t.Error("LogTable accessor")
	}
	if _, err := NewDeployment(Config{}); err == nil {
		t.Error("nil web should be rejected")
	}
}
