package server

import (
	"reflect"
	"testing"

	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/relmodel"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
)

// siteWithDocs returns a campus site hosting at least n documents.
func siteWithDocs(t *testing.T, web *webgraph.Web, n int) string {
	t.Helper()
	for _, site := range web.Hosts() {
		if len(web.URLsAt(site)) >= n {
			return site
		}
	}
	t.Fatalf("no site with >= %d documents", n)
	return ""
}

// TestDBCacheLRUEviction: with DBCacheEntries set, the CacheDBs retention
// must stay at the bound, count its evictions, and re-build (re-parse) a
// node that was evicted — while never evicting an in-flight entry.
func TestDBCacheLRUEviction(t *testing.T) {
	web := webgraph.Campus()
	site := siteWithDocs(t, web, 4)
	urls := web.URLsAt(site)
	const bound = 2
	met := &Metrics{}
	s := New(site, webserver.NewHost(site, web), netsim.New(netsim.Options{}), met, Options{
		CacheDBs: true, DBCacheEntries: bound,
	})

	for _, u := range urls {
		if _, err := s.LoadDB(u); err != nil {
			t.Fatal(err)
		}
	}
	if got := met.DBCacheEvicted.Load(); got != int64(len(urls)-bound) {
		t.Fatalf("DBCacheEvicted = %d, want %d", got, len(urls)-bound)
	}
	s.dbMu.RLock()
	cached := len(s.dbCache)
	s.dbMu.RUnlock()
	if cached != bound {
		t.Fatalf("retained %d databases, want %d", cached, bound)
	}

	// urls[0] is the coldest entry: long evicted, so using it again must
	// run the Database Constructor once more.
	parsed := met.DocsParsed.Load()
	if _, err := s.LoadDB(urls[0]); err != nil {
		t.Fatal(err)
	}
	if got := met.DocsParsed.Load(); got != parsed+1 {
		t.Fatalf("DocsParsed after evicted re-use = %d, want %d", got, parsed+1)
	}
	// The most recent entry is still retained: a repeat use is a hit.
	hits := met.DBCacheHits.Load()
	if _, err := s.LoadDB(urls[0]); err != nil {
		t.Fatal(err)
	}
	if met.DBCacheHits.Load() != hits+1 {
		t.Fatal("repeat use of a retained database was not a cache hit")
	}
}

// TestDBCacheUnboundedWithoutEntries pins the seed behaviour: CacheDBs
// without DBCacheEntries retains everything and never evicts.
func TestDBCacheUnboundedWithoutEntries(t *testing.T) {
	web := webgraph.Campus()
	site := siteWithDocs(t, web, 4)
	urls := web.URLsAt(site)
	met := &Metrics{}
	s := New(site, webserver.NewHost(site, web), netsim.New(netsim.Options{}), met, Options{CacheDBs: true})
	for _, u := range urls {
		if _, err := s.LoadDB(u); err != nil {
			t.Fatal(err)
		}
	}
	if met.DBCacheEvicted.Load() != 0 {
		t.Fatalf("unbounded cache evicted %d entries", met.DBCacheEvicted.Load())
	}
	s.dbMu.RLock()
	cached := len(s.dbCache)
	s.dbMu.RUnlock()
	if cached != len(urls) {
		t.Fatalf("retained %d databases, want %d", cached, len(urls))
	}
}

// TestStoreBackedDatabases: a server with Options.Store serves databases
// that are tuple-identical to the in-RAM Database Constructor, builds the
// store exactly once, and on a restart reopens it without parsing a
// single document (cold start = open-not-rebuild).
func TestStoreBackedDatabases(t *testing.T) {
	web := webgraph.Campus()
	site := siteWithDocs(t, web, 2)
	urls := web.URLsAt(site)
	dir := t.TempDir()
	tr := netsim.New(netsim.Options{})

	met := &Metrics{}
	s := New(site, webserver.NewHost(site, web), tr, met, Options{
		Store: StoreOptions{Dir: dir, PoolPages: 16},
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if met.StoreBuilds.Load() != 1 || met.ColdOpens.Load() != 0 {
		t.Fatalf("first start: builds=%d coldOpens=%d, want 1 and 0",
			met.StoreBuilds.Load(), met.ColdOpens.Load())
	}
	if got := met.DocsParsed.Load(); got != int64(len(urls)) {
		t.Fatalf("store build parsed %d docs, want %d", got, len(urls))
	}
	for _, u := range urls {
		before := met.PagesRead.Load()
		got, err := s.LoadDB(u)
		if err != nil {
			t.Fatal(err)
		}
		html, _ := web.HTML(u)
		want, err := nodeproc.BuildDB(u, html)
		if err != nil {
			t.Fatal(err)
		}
		if got.Text == nil {
			t.Fatalf("%s: store-backed database has no text oracle", u)
		}
		if n := met.PagesRead.Load() - before; n != 0 {
			t.Fatalf("%s: handing out a database read %d pages before any relation was opened", u, n)
		}
		for _, name := range []string{relmodel.RelRelInfon, relmodel.RelDocument, relmodel.RelAnchor} {
			g, err := got.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: store-backed %s differs from in-RAM build", u, name)
			}
		}
	}
	if met.PagesRead.Load() == 0 {
		t.Fatal("store-backed serving read no pages")
	}
	s.Stop()

	// Restart against the same directory: open, don't rebuild.
	met2 := &Metrics{}
	s2 := New(site, webserver.NewHost(site, web), tr, met2, Options{
		Store: StoreOptions{Dir: dir, PoolPages: 16},
	})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if met2.ColdOpens.Load() != 1 || met2.StoreBuilds.Load() != 0 {
		t.Fatalf("restart: coldOpens=%d builds=%d, want 1 and 0",
			met2.ColdOpens.Load(), met2.StoreBuilds.Load())
	}
	if met2.DocsParsed.Load() != 0 {
		t.Fatalf("restart parsed %d documents, want 0", met2.DocsParsed.Load())
	}
	if _, err := s2.LoadDB(urls[0]); err != nil {
		t.Fatal(err)
	}
	if met2.DocsParsed.Load() != 0 {
		t.Fatal("reopened store parsed a document to serve a database")
	}
}

// TestStoreServerEndToEnd runs a real campus clone through a store-backed
// server and checks the reported rows match the plain server's.
func TestStoreServerEndToEnd(t *testing.T) {
	rows := func(opts Options) [][]string {
		h := newHarness(t, webgraph.Campus(), "dsl.serc.iisc.ernet.in", opts)
		h.send(t, campusStage2Clone("http://dsl.serc.iisc.ernet.in/index.html"))
		msgs := h.waitMsgs(t, 2)
		var out [][]string
		for _, m := range msgs {
			for _, tbl := range m.Tables {
				out = append(out, tbl.Rows...)
			}
		}
		return out
	}
	plain := rows(Options{})
	stored := rows(Options{Store: StoreOptions{Dir: t.TempDir()}})
	if !reflect.DeepEqual(plain, stored) {
		t.Fatalf("store-backed rows differ:\n plain %v\n store %v", plain, stored)
	}
	if len(stored) == 0 {
		t.Fatal("workload produced no rows; test is vacuous")
	}
}
