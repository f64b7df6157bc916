package core

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/server"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// participants builds a Participate function admitting only the listed
// sites.
func participants(sites ...string) func(string) bool {
	set := make(map[string]bool, len(sites))
	for _, s := range sites {
		set[s] = true
	}
	return func(site string) bool { return set[site] }
}

func runHybrid(t *testing.T, participate func(string) bool) (*Deployment, *queryResult) {
	t.Helper()
	d, err := NewDeployment(Config{Web: webgraph.Campus(), Exec: ExecConfig{Participate: participate}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	q, err := d.Run(webgraph.CampusDISQL, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return d, &queryResult{q.Results(), q.FallbackStats()}
}

type queryResult struct {
	results []client.ResultTable
	fstats  client.FallbackStats
}

func checkCampusAnswers(t *testing.T, res []client.ResultTable) {
	t.Helper()
	if len(res) != 2 {
		t.Fatalf("results = %+v", res)
	}
	if len(res[0].Rows) != 1 || res[0].Rows[0][0] != webgraph.CampusLabs {
		t.Errorf("q1 = %+v", res[0])
	}
	if len(res[1].Rows) != len(webgraph.CampusConveners) {
		t.Fatalf("q2 rows = %+v", res[1].Rows)
	}
	for _, row := range res[1].Rows {
		want := webgraph.CampusConveners[row[0]]
		if want == "" || !strings.Contains(row[1], want) {
			t.Errorf("row = %v", row)
		}
	}
}

func TestHybridAllSitesParticipate(t *testing.T) {
	d, r := runHybrid(t, func(string) bool { return true })
	checkCampusAnswers(t, r.results)
	if r.fstats.Bounces != 0 || r.fstats.Fetches != 0 {
		t.Errorf("no fallback expected: %+v", r.fstats)
	}
	if d.Metrics().Bounced.Load() != 0 {
		t.Error("no bounces expected")
	}
}

func TestHybridNoSiteParticipates(t *testing.T) {
	// Fully centralized: every clone is processed at the user-site.
	d, r := runHybrid(t, func(string) bool { return false })
	checkCampusAnswers(t, r.results)
	if r.fstats.Fetches == 0 || r.fstats.Evaluations == 0 {
		t.Errorf("fallback did no work: %+v", r.fstats)
	}
	if d.Metrics().Evaluations.Load() != 0 {
		t.Error("no server should have evaluated anything")
	}
	// All fetch traffic flowed to the user-site.
	tot := d.Network().Stats().Snapshot().Total()
	if tot.ByKind["fetch-resp"] == 0 {
		t.Errorf("kinds = %+v", tot.ByKind)
	}
}

func TestHybridPartialParticipation(t *testing.T) {
	// The CSA department and the DSL participate; the other labs do not.
	d, r := runHybrid(t, participants("csa.iisc.ernet.in", "dsl.serc.iisc.ernet.in"))
	checkCampusAnswers(t, r.results)
	m := d.Metrics().Snapshot()
	if m.Bounced == 0 {
		t.Error("servers should have bounced clones for non-participants")
	}
	if m.Evaluations == 0 {
		t.Error("participating servers should have evaluated locally")
	}
	if r.fstats.Fetches == 0 || r.fstats.Evaluations == 0 {
		t.Errorf("fallback stats = %+v", r.fstats)
	}
}

func TestHybridRejoinsDistributedMode(t *testing.T) {
	// A chain of sites where a non-participating site sits in the middle:
	// the clone must pass through the fallback and rejoin the servers.
	web := webgraph.Chain(6, 1, 4)
	d, err := NewDeployment(Config{
		Web: web,
		Exec: ExecConfig{
			Participate: func(site string) bool { return site != "c2.example" && site != "c3.example" },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.Run(`select d.url from document d such that "http://c0.example/p0.html" N|G* d`, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rows := q.Results()[0].Rows
	if len(rows) != 6 {
		t.Fatalf("rows = %v", rows)
	}
	fs := q.FallbackStats()
	if fs.Fetches != 2 {
		t.Errorf("fallback fetched %d documents, want 2 (the gap)", fs.Fetches)
	}
	if fs.Rejoined == 0 {
		t.Error("the clone never rejoined distributed mode")
	}
	if got := d.Metrics().Evaluations.Load(); got != 4 {
		t.Errorf("server evaluations = %d, want 4", got)
	}
}

func TestHybridStartSiteNotParticipating(t *testing.T) {
	d, r := runHybrid(t, participants(
		"dsl.serc.iisc.ernet.in", "www-compiler.csa.iisc.ernet.in",
		"www2.csa.iisc.ernet.in", "archit.csa.iisc.ernet.in", "www.iisc.ernet.in"))
	// The CSA department itself (the StartNode's site) does not
	// participate: both stage-1 hops happen at the user-site.
	checkCampusAnswers(t, r.results)
	if r.fstats.Bounces == 0 && r.fstats.LocalClones == 0 {
		t.Errorf("fallback stats = %+v", r.fstats)
	}
	if d.Metrics().Evaluations.Load() == 0 {
		t.Error("lab servers should still evaluate q2")
	}
}

func TestHybridMatchesDistributedTraffic(t *testing.T) {
	// Monotonic migration path: more participation, fewer bytes.
	bytesAt := func(frac int) int64 {
		web := webgraph.Tree(webgraph.TreeOpts{Fanout: 3, Depth: 3, PagesPerSite: 2, MarkerFrac: 0.2, Seed: 12})
		hosts := web.Hosts()
		cut := len(hosts) * frac / 100
		set := make(map[string]bool)
		for _, h := range hosts[:cut] {
			set[h] = true
		}
		d, err := NewDeployment(Config{Web: web, Exec: ExecConfig{Participate: func(s string) bool { return set[s] }}})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		src := `select d.url from document d such that "` + web.First() + `" N|(L|G)* d where d.text contains "` + webgraph.Marker + `"`
		if _, err := d.Run(src, 15*time.Second); err != nil {
			t.Fatal(err)
		}
		return d.Network().Stats().Snapshot().Total().Bytes
	}
	b0, b100 := bytesAt(0), bytesAt(100)
	if b0 <= b100 {
		t.Errorf("full participation should cost less: 0%%=%d bytes, 100%%=%d bytes", b0, b100)
	}
}

func TestParticipateRequiresDocService(t *testing.T) {
	_, err := NewDeployment(Config{
		Web: webgraph.Campus(),
		Exec: ExecConfig{
			NoDocService: true,
			Participate:  func(string) bool { return true },
		},
	})
	if err == nil {
		t.Fatal("Participate without doc service should be rejected")
	}
}

// TestHybridRejectsServerRules: the fallback cannot follow a server rule
// that may differ per site, so a hybrid deployment that sets one is
// refused instead of answering differently wherever a clone bounces.
func TestHybridRejectsServerRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		exec ExecConfig
	}{
		{"participate+strict", ExecConfig{Participate: participants(), Server: server.Options{StrictDeadEnds: true}}},
		{"participate+maxhops", ExecConfig{Participate: participants(), Server: server.Options{MaxHops: 8}}},
		{"hybrid+strict", ExecConfig{Hybrid: true, Server: server.Options{StrictDeadEnds: true}}},
		{"hybrid+maxhops", ExecConfig{Hybrid: true, Server: server.Options{MaxHops: 8}}},
	} {
		if d, err := NewDeployment(Config{Web: webgraph.Campus(), Exec: tc.exec}); err == nil {
			d.Close()
			t.Errorf("%s: deployment accepted, want an error", tc.name)
		}
	}
}

// TestHybridHonoursBudget: a clone's wire-carried budget binds wherever
// the clone is processed. Whether every site runs a query server, some
// bounce to the user-site's fallback, or the whole query is evaluated
// there, a hop, row or clone-spawn quota must clip the answer to the same
// rows, and the CHT must still drain.
func TestHybridHonoursBudget(t *testing.T) {
	web := webgraph.Chain(6, 1, 4)
	w := disql.MustParse(`select d.url from document d such that "http://c0.example/p0.html" N|G* d`)
	patterns := []struct {
		name        string
		participate func(string) bool
	}{
		{"all", func(string) bool { return true }},
		{"c2,c3 out", func(site string) bool { return site != "c2.example" && site != "c3.example" }},
		{"none", func(string) bool { return false }},
	}
	for _, tc := range []struct {
		budget wire.Budget
		want   []string
	}{
		{wire.Budget{Hops: 2}, []string{"http://c0.example/p0.html", "http://c1.example/p1.html", "http://c2.example/p2.html"}},
		{wire.Budget{Rows: 2}, []string{"http://c0.example/p0.html", "http://c1.example/p1.html"}},
		{wire.Budget{Clones: 1}, []string{"http://c0.example/p0.html", "http://c1.example/p1.html"}},
		{wire.Budget{Clones: 2}, []string{"http://c0.example/p0.html", "http://c1.example/p1.html", "http://c2.example/p2.html"}},
	} {
		for _, p := range patterns {
			d, err := NewDeployment(Config{Web: web, Exec: ExecConfig{Participate: p.participate}})
			if err != nil {
				t.Fatal(err)
			}
			q, err := d.SubmitBudget(w, tc.budget)
			if err != nil {
				d.Close()
				t.Fatal(err)
			}
			if err := q.Wait(waitFor); err != nil {
				t.Errorf("%+v, %s: %v", tc.budget, p.name, err)
			}
			var got []string
			for _, tbl := range q.Results() {
				for _, row := range tbl.Rows {
					got = append(got, row[0])
				}
			}
			sort.Strings(got)
			if !slices.Equal(got, tc.want) {
				t.Errorf("%+v, %s: rows %v, want %v", tc.budget, p.name, got, tc.want)
			}
			if q.LiveEntries() != 0 {
				t.Errorf("%+v, %s: %d CHT entries still live", tc.budget, p.name, q.LiveEntries())
			}
			d.Close()
		}
	}
}
