package core

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
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

// userAndServers splits a deployment's metrics into the user-site's row
// (the client and its proxy) and the sum of every query server's row.
func userAndServers(d *Deployment) (user, servers server.Snapshot) {
	for key, sn := range d.SiteSnapshots() {
		if key == d.user {
			user = sn
		} else {
			servers = servers.Add(sn)
		}
	}
	return user, servers
}

func runHybrid(t *testing.T, participate func(string) bool) *queryResult {
	t.Helper()
	return runHybridCfg(t, Config{Web: webgraph.Campus(), Exec: ExecConfig{Participate: participate}})
}

func runHybridCfg(t *testing.T, cfg Config) *queryResult {
	t.Helper()
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	q, err := d.Run(webgraph.CampusDISQL, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r := &queryResult{results: q.Results()}
	r.user, r.servers = userAndServers(d)
	return r
}

type queryResult struct {
	results       []client.ResultTable
	user, servers server.Snapshot
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
	r := runHybrid(t, func(string) bool { return true })
	checkCampusAnswers(t, r.results)
	if r.user.Evaluations != 0 || r.user.DocsParsed != 0 {
		t.Errorf("the proxy should have done nothing: %+v", r.user)
	}
	if r.servers.Bounced != 0 {
		t.Error("no bounces expected")
	}
}

func TestHybridNoSiteParticipates(t *testing.T) {
	// Fully centralized: every clone is processed at the user-site.
	r := runHybrid(t, func(string) bool { return false })
	checkCampusAnswers(t, r.results)
	if r.user.DocsParsed == 0 || r.user.Evaluations == 0 {
		t.Errorf("the proxy did no work: %+v", r.user)
	}
	if r.servers.Evaluations != 0 {
		t.Error("no server should have evaluated anything")
	}
	// Every document the proxy parsed was downloaded.
	if r.user.ShipDataBytes < r.user.DocBytes {
		t.Errorf("downloaded %d B for %d B parsed", r.user.ShipDataBytes, r.user.DocBytes)
	}
}

func TestHybridPartialParticipation(t *testing.T) {
	// The CSA department and the DSL participate; the other labs do not.
	r := runHybrid(t, participants("csa.iisc.ernet.in", "dsl.serc.iisc.ernet.in"))
	checkCampusAnswers(t, r.results)
	if r.servers.Bounced == 0 {
		t.Error("servers should have bounced clones for non-participants")
	}
	if r.servers.Evaluations == 0 {
		t.Error("participating servers should have evaluated locally")
	}
	if r.user.DocsParsed == 0 || r.user.Evaluations == 0 {
		t.Errorf("proxy row = %+v", r.user)
	}
}

// TestHybridOverTCP runs the partial-participation campus query over real
// loopback sockets: bounces reach the collector, the proxy's listener
// takes them as plain clones, and its reports travel the collector path.
func TestHybridOverTCP(t *testing.T) {
	r := runHybridCfg(t, Config{Web: webgraph.Campus(), Exec: ExecConfig{
		Transport:   netsim.NewTCP(),
		Participate: participants("csa.iisc.ernet.in", "dsl.serc.iisc.ernet.in"),
	}})
	checkCampusAnswers(t, r.results)
	if r.servers.Bounced == 0 || r.user.Evaluations == 0 || r.user.ResultMsgs == 0 {
		t.Errorf("servers %+v, proxy %+v", r.servers, r.user)
	}
}

func TestHybridRejoinsDistributedMode(t *testing.T) {
	// A chain of sites where a non-participating site sits in the middle:
	// the clone must pass through the proxy and rejoin the servers.
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
	if rows := q.Results()[0].Rows; len(rows) != 6 {
		t.Fatalf("rows = %v", rows)
	}
	user, servers := userAndServers(d)
	if user.DocsParsed != 2 {
		t.Errorf("the proxy fetched %d documents, want 2 (the gap)", user.DocsParsed)
	}
	if user.ClonesForwarded == 0 {
		t.Error("the clone never rejoined distributed mode")
	}
	if servers.Evaluations != 4 {
		t.Errorf("server evaluations = %d, want 4", servers.Evaluations)
	}
}

func TestHybridStartSiteNotParticipating(t *testing.T) {
	r := runHybrid(t, participants(
		"dsl.serc.iisc.ernet.in", "www-compiler.csa.iisc.ernet.in",
		"www2.csa.iisc.ernet.in", "archit.csa.iisc.ernet.in", "www.iisc.ernet.in"))
	// The CSA department itself (the StartNode's site) does not
	// participate: both stage-1 hops happen at the user-site, the second
	// on a clone the proxy kept because it could not forward it.
	checkCampusAnswers(t, r.results)
	if r.user.LocalClones == 0 {
		t.Errorf("proxy row = %+v", r.user)
	}
	if r.servers.Evaluations == 0 {
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

// TestHybridHonoursBudget: a clone's wire-carried budget binds wherever
// the clone is processed. Whether every site runs a query server, some
// bounce to the user-site's proxy, or the whole query is evaluated
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

// TestHybridMutationReachesProxy: the proxy outlives its queries, so with
// CacheDBs it retains the databases of the documents it downloaded. A
// mutation on a site without a query server must evict them there too,
// or the next query answers from the page as it was.
func TestHybridMutationReachesProxy(t *testing.T) {
	web := webgraph.Chain(4, 1, 9)
	const src = `select d.url, d.text from document d such that "http://c0.example/p0.html" N|G* d`
	d := deployCfg(t, Config{
		Web: web,
		Exec: ExecConfig{
			Participate: participants("c0.example"),
			Server:      server.Options{CacheDBs: true},
		},
		Watch: WatchConfig{Mutations: webgraph.MutationPlan{Seed: 5, Edit: 1, Sites: []string{"c2.example"}}},
	})
	for i := 0; i < 3; i++ {
		if i > 0 {
			if muts, _ := d.Mutate(1); len(muts) != 1 {
				t.Fatalf("mutations = %v", muts)
			}
		}
		q := run(t, d, src)
		cent, err := centralized.Run(d.Network(), "central/results", disql.MustParse(src), centralized.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowSet(q.Results()), rowSet(cent.Tables); !maps.Equal(got, want) {
			t.Errorf("run %d: rows %v, want %v", i, got, want)
		}
	}
	if user, _ := userAndServers(d); user.DBCacheHits == 0 || user.DocsInvalidated != 2 {
		t.Errorf("proxy row = %+v, want cache hits and 2 invalidations", user)
	}
}

// TestHybridConcurrentQueries: one proxy serves every query of the
// user-site at once, where the fallback it replaced was one per query.
// Each query still gets the full answer and a drained CHT.
func TestHybridConcurrentQueries(t *testing.T) {
	d := deployCfg(t, Config{Web: webgraph.Campus(), Exec: ExecConfig{
		Participate: participants("csa.iisc.ernet.in", "dsl.serc.iisc.ernet.in"),
		Server:      server.Options{Workers: 2},
		ReapGrace:   time.Second,
	}})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := d.Run(webgraph.CampusDISQL, waitFor)
			if err != nil {
				t.Error(err)
				return
			}
			if res := q.Results(); len(res) != 2 || len(res[1].Rows) != len(webgraph.CampusConveners) {
				t.Errorf("results = %+v", res)
			}
			if q.Partial() || q.LiveEntries() != 0 {
				t.Errorf("partial=%v, %d CHT entries live", q.Partial(), q.LiveEntries())
			}
		}()
	}
	wg.Wait()
}
