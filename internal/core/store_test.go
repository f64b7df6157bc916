package core

import (
	"testing"
	"time"

	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// storeWeb is a marker-dense tree whose answers are exact; the text
// markers make every query exercise the persisted inverted index.
func storeWeb() *webgraph.Web {
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 2, Depth: 3, PagesPerSite: 2,
		MarkerFrac: 0.5, FillerWords: 60, Seed: 11,
	})
}

const storeRoot = "http://t0.example/p0.html"

func storeQueries() []string {
	return []string{
		// Indexed contains over the whole reachable set.
		`select d.url from document d such that "` + storeRoot + `" N|(G*3) d
		 where d.text contains "` + webgraph.Marker + `"`,
		// Negated contains plus a residual (unfoldable) predicate.
		`select d.url, d.length from document d such that "` + storeRoot + `" N|(G*2) d
		 where d.text not contains "nosuchtokenever" and d.length > "1"`,
		// Anchor/relinfon relations come off the same slotted pages.
		`select a.href, a.label from document d such that "` + storeRoot + `" N|(G*1) d, anchor a
		 where a.ltype = "global"`,
	}
}

// storeArm deploys web with every server reading its site from a
// persistent store rooted at dir (replica 0 builds it on first start).
func storeArm(t *testing.T, web *webgraph.Web, dir string, tr netsim.Transport, base server.Options) *Deployment {
	t.Helper()
	base.Store = server.StoreOptions{Dir: dir, PoolPages: 64}
	d, err := NewDeployment(Config{Web: web, Exec: ExecConfig{Server: base, Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestStoreDifferential is the subsystem's central acceptance property:
// store-backed execution must be invisible in the answers — byte-for-byte
// identical result tables against the in-RAM Database Constructor, over
// the in-process pipe transport and over real TCP sockets.
func TestStoreDifferential(t *testing.T) {
	for i, src := range storeQueries() {
		ram := deploy(t, storeWeb(), server.Options{})
		qr := run(t, ram, src)

		pipe := storeArm(t, storeWeb(), t.TempDir(), nil, server.Options{})
		qp := run(t, pipe, src)
		if got, want := renderResults(qp), renderResults(qr); got != want {
			t.Errorf("query %d over pipe: store changed the answer\nstore:\n%s\nram:\n%s", i, got, want)
		}

		tcp := storeArm(t, storeWeb(), t.TempDir(), netsim.NewTCP(), server.Options{})
		qt, err := tcp.Run(src, waitFor)
		if err != nil {
			t.Fatalf("query %d over TCP: %v", i, err)
		}
		if got, want := renderResults(qt), renderResults(qr); got != want {
			t.Errorf("query %d over TCP: store changed the answer\nstore:\n%s\nram:\n%s", i, got, want)
		}
		if m := pipe.Metrics(); m.PagesRead.Load() == 0 {
			t.Errorf("query %d: store arm read no pages", i)
		}
	}

	// Campus, the paper's own workload, end to end.
	ram := deploy(t, webgraph.Campus(), server.Options{})
	qr := run(t, ram, webgraph.CampusDISQL)
	st := storeArm(t, webgraph.Campus(), t.TempDir(), nil, server.Options{})
	qs := run(t, st, webgraph.CampusDISQL)
	if got, want := renderResults(qs), renderResults(qr); got != want {
		t.Errorf("campus: store changed the answer\nstore:\n%s\nram:\n%s", got, want)
	}
	if m := st.Metrics(); m.IndexHits.Load() == 0 {
		t.Error("campus contains-predicates never consulted the text index")
	}
}

// TestStoreDifferentialUnderFaults reruns the differential under the T11
// fault schedule: 20% message drops with bounded retries. Fault handling
// must not interact with where databases come from.
func TestStoreDifferentialUnderFaults(t *testing.T) {
	src := storeQueries()[0]
	want := rowSet(run(t, deploy(t, storeWeb(), server.Options{}), src).Results())

	faulty := netsim.Options{Faults: netsim.FaultPlan{Seed: 7, Drop: 0.20}}
	dir := t.TempDir()
	base := server.Options{Retry: chaosRetry, Store: server.StoreOptions{Dir: dir, PoolPages: 64}}
	d, err := NewDeployment(Config{Web: storeWeb(), Exec: ExecConfig{Server: base, ReapGrace: 400 * time.Millisecond}, Net: faulty})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.Run(src, 30*time.Second)
	if err != nil {
		t.Fatalf("store arm under faults: %v", err)
	}
	got := rowSet(q.Results())
	if missing, ok := subset(want, got); !ok {
		t.Errorf("store arm under faults lost row %s", missing)
	}
	if extra, ok := subset(got, want); !ok {
		t.Errorf("store arm under faults invented row %s", extra)
	}
}

// TestStoreReopen: a second deployment over the same store directory must
// serve identical answers from a cold open — ColdOpens counts every site,
// and not one document is fetched or parsed.
func TestStoreReopen(t *testing.T) {
	web := storeWeb()
	dir := t.TempDir()
	src := storeQueries()[0]

	first := storeArm(t, web, dir, nil, server.Options{})
	qf := run(t, first, src)
	want := renderResults(qf)
	if b := first.Metrics().StoreBuilds.Load(); b != int64(web.NumSites()) {
		t.Fatalf("first deployment built %d stores, want %d", b, web.NumSites())
	}
	first.Close()

	// The second deployment serves documents too (webgen-style restart),
	// but must never ask for one: cold start is open, not rebuild.
	second := storeArm(t, web, dir, nil, server.Options{})
	qs := run(t, second, src)
	if got := renderResults(qs); got != want {
		t.Errorf("reopened store changed the answer\ngot:\n%s\nwant:\n%s", got, want)
	}
	m := second.Metrics()
	if m.ColdOpens.Load() != int64(web.NumSites()) {
		t.Errorf("ColdOpens = %d, want %d", m.ColdOpens.Load(), web.NumSites())
	}
	if m.StoreBuilds.Load() != 0 {
		t.Errorf("reopen rebuilt %d stores", m.StoreBuilds.Load())
	}
	if m.DocsParsed.Load() != 0 {
		t.Errorf("reopen parsed %d documents, want 0", m.DocsParsed.Load())
	}
}
