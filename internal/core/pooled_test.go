package core

import (
	"fmt"
	"strings"
	"testing"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/relmodel"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// poison is the byte a released node database's text is overwritten
// with; no campus page holds it.
const poison = '\x01'

// pooledQueries project every column that views a node database's pooled
// text — the document text, anchor labels, rel-infon texts — directly and
// through a correlated stage's exported bindings.
func pooledQueries() []string {
	const start = `"http://csa.iisc.ernet.in/index.html"`
	return []string{
		`select d.url, d.text from document d such that ` + start + ` N|(L|G)*3 d`,
		`select d.url, a.label, a.href from document d such that ` + start + ` N|(L|G)*2 d, anchor a`,
		`select d.url, r.delimiter, r.text from document d such that ` + start + ` N|(L|G)*2 d, relinfon r`,
		webgraph.CampusDISQL,
		// The campus query grouped by the first stage's text: d0.text is
		// exported, travels to the second stage's sites in the clones'
		// environment, and comes back in their rows.
		`select d0.text, d1.url, count(r.text)
		 from document d0 such that ` + start + ` L d0,
		 where d0.title contains "lab"
		      document d1 such that d0 G·(L*1) d1,
		      relinfon r such that r.delimiter = "hr",
		 where (r.text contains "convener")
		 group by d0.text, d1.url`,
	}
}

// TestPooledDatabasesDifferential runs with every released node database
// poisoned: a row cell or an exported value that still viewed its page's
// memory would read the poison (or a later page's text) by the time it is
// shipped. Every answer must equal the centralized baseline's and hold no
// poison, over pipe and TCP, one worker and eight (whose coalesced builds
// share one database), with and without retained databases, through the
// store's read-through of mutated documents, and at the user-site's proxy,
// which downloads what it evaluates.
func TestPooledDatabasesDifferential(t *testing.T) {
	refs := make([]string, len(pooledQueries()))
	ref := deploy(t, webgraph.Campus(), server.Options{})
	for i, src := range pooledQueries() {
		refs[i] = centralRows(t, ref, src)
	}
	relmodel.PoisonReleased(poison)
	defer relmodel.PoisonReleased(0)
	check := func(t *testing.T, d *Deployment, want []string) {
		t.Helper()
		for i, src := range pooledQueries() {
			q, err := d.Run(src, waitFor)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			checkUnpoisoned(t, q.Results())
			if got := renderResults(q); got != want[i] {
				t.Errorf("query %d differs from the centralized baseline\nengine:\n%s\nbaseline:\n%s", i, got, want[i])
			}
		}
	}
	for _, tcp := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			for _, cache := range []bool{false, true} {
				name := fmt.Sprintf("tcp=%v/workers=%d/cachedbs=%v", tcp, workers, cache)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Web: webgraph.Campus(), Exec: ExecConfig{Server: server.Options{Workers: workers, CacheDBs: cache}}}
					if tcp {
						cfg.Exec.Transport = netsim.NewTCP()
					}
					check(t, deployCfg(t, cfg), refs)
				})
			}
		}
	}
	t.Run("store read-through", func(t *testing.T) {
		d := deployCfg(t, Config{
			Web:     webgraph.Campus(),
			Storage: server.StoreOptions{Dir: t.TempDir(), PoolPages: 64},
			Watch:   WatchConfig{Mutations: webgraph.MutationPlan{Seed: 5, Edit: 1}},
		})
		if muts, _ := d.Mutate(12); len(muts) == 0 {
			t.Fatal("no mutation applied")
		}
		want := make([]string, len(pooledQueries()))
		for i, src := range pooledQueries() {
			want[i] = centralRows(t, d, src)
		}
		before := d.Metrics().DocsParsed.Load()
		check(t, d, want)
		if _, servers := userAndServers(d); servers.DocsParsed == before {
			t.Error("no stale document was read through and parsed; the store arm proves nothing")
		}
	})
	t.Run("proxy", func(t *testing.T) {
		d := deployCfg(t, Config{Web: webgraph.Campus(), Exec: ExecConfig{
			Participate: participants("csa.iisc.ernet.in", "dsl.serc.iisc.ernet.in"),
		}})
		check(t, d, refs)
		if user, _ := userAndServers(d); user.DocsParsed == 0 {
			t.Error("the proxy parsed no downloaded document")
		}
	})
}

// centralRows renders the centralized baseline's answer over d's web. The
// baseline visits through the same Visitor, so it runs unpoisoned: the
// poison is the engine's alone to meet.
func centralRows(t *testing.T, d *Deployment, src string) string {
	t.Helper()
	relmodel.PoisonReleased(0)
	defer relmodel.PoisonReleased(poison)
	res, err := centralized.Run(d.Transport(), "central/results", disql.MustParse(src), centralized.Options{})
	if err != nil {
		t.Fatalf("centralized baseline: %v", err)
	}
	checkUnpoisoned(t, res.Tables)
	return renderTables(res.Tables)
}

func checkUnpoisoned(t *testing.T, tables []client.ResultTable) {
	t.Helper()
	rows := 0
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			rows++
			for _, cell := range row {
				if strings.IndexByte(cell, poison) >= 0 {
					t.Fatalf("stage %d row %.40q reads a released database", tbl.Stage, row)
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("no rows: the comparison proves nothing")
	}
}
