package server

import (
	"strings"
	"sync"
	"testing"
	"time"

	"webdis/internal/netsim"
	"webdis/internal/relmodel"
)

// gatedDocs serves one page, each request once gate is closed.
type gatedDocs struct {
	gate chan struct{}
	page []byte
}

func (g *gatedDocs) Get(string) ([]byte, error) {
	<-g.gate
	return g.page, nil
}

// TestCoalescedBuildRetainsPerWaiter holds every LoadDB that joined an
// in-flight build to one reference of the pooled DB: the page stays
// readable through all but the last Release, which hands the memory back
// (poisoned here).
func TestCoalescedBuildRetainsPerWaiter(t *testing.T) {
	relmodel.PoisonReleased('#')
	defer relmodel.PoisonReleased(0)
	const node = "http://a.example/p.html"
	docs := &gatedDocs{gate: make(chan struct{}), page: []byte(`<title>T</title><p>the page text</p><a href="q.html">label</a>`)}
	srv := New("a.example", docs, netsim.New(netsim.Options{}), &Metrics{}, Options{})

	const n = 8
	dbs := make(chan *relmodel.DB, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db, err := srv.LoadDB(node)
			if err != nil {
				t.Error(err)
				return
			}
			dbs <- db
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); srv.met.DBBuildCoalesced.Load() < n-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d loads joined the build", srv.met.DBBuildCoalesced.Load(), n-1)
		}
	}
	close(docs.gate)
	wg.Wait()
	close(dbs)
	if got := srv.met.DocsParsed.Load(); got != 1 {
		t.Fatalf("DocsParsed = %d, want 1", got)
	}
	var held []*relmodel.DB
	for db := range dbs {
		held = append(held, db)
	}
	document, err := held[0].Relation(relmodel.RelDocument)
	if err != nil {
		t.Fatal(err)
	}
	text := document.Tuples[0][2]
	want := strings.Clone(text)
	if !strings.Contains(want, "the page text") {
		t.Fatalf("text = %q", want)
	}
	for i, db := range held {
		if db != held[0] {
			t.Fatalf("load %d got a database of its own", i)
		}
		if text != want {
			t.Fatalf("text reads %q after %d of %d releases", text, i, n)
		}
		db.Release()
	}
	if text != strings.Repeat("#", len(want)) {
		t.Errorf("text reads %q after the last release, want the poison", text)
	}
}
