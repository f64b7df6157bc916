package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"webdis/internal/disql"
	"webdis/internal/nodeproc"
	"webdis/internal/plan"
	"webdis/internal/relmodel"
	"webdis/internal/webgraph"
)

// bigTree is a small tree of pages whose DOCUMENT record spans several
// heap pages (about 16 KB of text each), opened through a 16-frame pool
// with its own counters.
func bigTree(t *testing.T) (*webgraph.Web, *Store, *atomic.Int64) {
	t.Helper()
	web := webgraph.Tree(webgraph.TreeOpts{Fanout: 3, Depth: 2, PagesPerSite: 13, MarkerFrac: 0.3, FillerWords: 2000, Seed: 5})
	site := web.Hosts()[0]
	reads := new(atomic.Int64)
	st, err := Build(t.TempDir(), site, web.URLsAt(site), webGet(web), Options{PoolPages: 16, Counters: Counters{PagesRead: reads}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return web, st, reads
}

// decidedFalse is a one-stage query whose where-clause the text index
// decides false on every page, over a PRE that still routes.
func decidedFalse(t *testing.T, web *webgraph.Web) disql.Stage {
	t.Helper()
	q, err := disql.Parse(fmt.Sprintf(`select d.url from document d such that %q N|(L|G)*2 d where d.text contains "zzabsentzz"`, web.First()))
	if err != nil {
		t.Fatal(err)
	}
	return q.Stages[0]
}

// TestLazyDecidedFalseReadsNoPage: an evaluation the index decides false
// opens no relation, so it reads no page; a node that only routes reads
// the pages of its record run but materialises ANCHOR alone.
func TestLazyDecidedFalseReadsNoPage(t *testing.T) {
	web, st, reads := bigTree(t)
	stage := decidedFalse(t, web)
	urls := web.URLsAt(web.Hosts()[0])
	leaf, inner := urls[len(urls)-1], urls[0]

	db, err := st.DB(leaf)
	if err != nil {
		t.Fatal(err)
	}
	before := reads.Load()
	tbl, stats, err := plan.Eval(stage.Query, db, nil)
	if err != nil || !tbl.Empty() || stats.Scanned != 0 {
		t.Fatalf("decided-false eval: rows=%v scanned=%d err=%v", tbl, stats.Scanned, err)
	}
	if got := reads.Load() - before; got != 0 {
		t.Fatalf("decided-false leaf evaluation read %d pages, want 0", got)
	}

	db, err = st.DB(inner)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nodeproc.Step(db, inner, stage.PRE, stage, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadEnd || len(res.Continue) == 0 {
		t.Fatalf("inner page: dead-end=%v continue=%v, want a dead end that still routes", res.DeadEnd, res.Continue)
	}
	if reads.Load() == before {
		t.Fatal("routing read no page: the ANCHOR tuples cannot have come from the heap")
	}
}

// TestLazyRouterAllocs pins what a routed-through page costs: no block
// the size of its text (the DOCUMENT record is stepped over, not
// assembled) and an allocation count that does not grow with it.
func TestLazyRouterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	web, st, _ := bigTree(t)
	stage := decidedFalse(t, web)
	inner := web.First()
	textLen := 0
	{
		db, _ := st.DB(inner)
		textLen = len(relation(t, db, relmodel.RelDocument).Tuples[0][2])
	}
	if textLen < 3*PageSize {
		t.Fatalf("fixture text is %d bytes; the pin needs a spanned DOCUMENT record", textLen)
	}
	step := func() {
		db, err := st.DB(inner)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nodeproc.Step(db, inner, stage.PRE, stage, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the pool: its 16 buffers are allocated once
	var m0, m1 runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, step)
	runtime.ReadMemStats(&m1)
	if perRun := (m1.TotalAlloc - m0.TotalAlloc) / (runs + 1); perRun >= uint64(textLen)/2 {
		t.Errorf("routing through a page allocates %d B a visit; its text is %d B and must not be copied", perRun, textLen)
	}
	if allocs > 120 {
		t.Errorf("routing through a page: %.0f allocations a visit, want <= 120", allocs)
	}
}

// TestLazySharedDBConcurrent: coalesced evaluations share one handle;
// eight goroutines opening its relations at once get one Relation each
// (run under -race -count=10 in CI).
func TestLazySharedDBConcurrent(t *testing.T) {
	web, st, _ := bigTree(t)
	db, err := st.DB(web.First())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{relmodel.RelDocument, relmodel.RelAnchor, relmodel.RelRelInfon}
	var got [8][3]*relmodel.Relation
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range names {
				i := (g + k) % len(names)
				rel, err := db.Relation(names[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = rel
			}
		}()
	}
	wg.Wait()
	html, _ := web.HTML(web.First())
	want, err := nodeproc.BuildDB(web.First(), html)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		for g := range got {
			if got[g][i] != got[0][i] {
				t.Fatalf("%s: goroutine %d got its own copy", name, g)
			}
		}
		if w := relation(t, want, name); len(got[0][i].Tuples) != len(w.Tuples) {
			t.Fatalf("%s: %d tuples, want %d", name, len(got[0][i].Tuples), len(w.Tuples))
		}
	}
}

// TestLazySkippedOverflowCorrupt: a skipped record's overflow pages are
// not copied but are still read and verified — a bit flipped in one
// (after open, so the open-time scan cannot have caught it) surfaces as
// ErrCorrupt when ANCHOR is read across it.
func TestLazySkippedOverflowCorrupt(t *testing.T) {
	web, st, _ := bigTree(t)
	de := st.docs[st.byURL[web.First()]]
	overflow := de.page + 2 // the DOCUMENT record spans at least 4 pages
	f, err := os.OpenFile(st.f.Name(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := int64(overflow)*PageSize + PageSize/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	db, err := st.DB(web.First())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Relation(relmodel.RelAnchor); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ANCHOR across a damaged, skipped overflow page: err = %v, want ErrCorrupt", err)
	}
}

// TestLazyAfterClose: a database outlives its store in the server's
// cache. What it materialised before Close stays readable; a relation
// first opened afterwards is a typed ErrClosed; and Close racing loads
// is clean (every load either finishes or reports ErrClosed).
func TestLazyAfterClose(t *testing.T) {
	web, st, _ := bigTree(t)
	db, err := st.DB(web.First())
	if err != nil {
		t.Fatal(err)
	}
	anchors := relation(t, db, relmodel.RelAnchor)

	urls := web.URLsAt(web.Hosts()[0])
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d, err := st.DB(urls[(g+i)%len(urls)])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := d.Relation(relmodel.RelDocument); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("load racing Close: %v", err)
					return
				}
			}
		}()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if _, err := db.Relation(relmodel.RelDocument); !errors.Is(err, ErrClosed) {
		t.Fatalf("relation first opened after Close: err = %v, want ErrClosed", err)
	}
	if again := relation(t, db, relmodel.RelAnchor); again != anchors || len(again.Tuples) == 0 {
		t.Fatal("relation materialised before Close did not stay valid")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPoolRecycleBound: over 10 000 random gets the pool owns at most
// cap page buffers (an evicted frame's buffer goes to the page that
// displaced it), and a buffer is never handed on while a frame that
// still shows it is pinned.
func TestPoolRecycleBound(t *testing.T) {
	const npages, capPages = 64, 8
	p := poolFixture(t, npages, capPages, Counters{})
	held, err := p.get(3)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), held.buf...)
	bufs := map[*byte]bool{&held.buf[0]: true}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		no := uint32(r.Intn(npages))
		fr, err := p.get(no)
		if err != nil {
			t.Fatal(err)
		}
		if no != 3 && &fr.buf[0] == &held.buf[0] {
			t.Fatalf("get %d: page %d was given the buffer of pinned page 3", i, no)
		}
		bufs[&fr.buf[0]] = true
		if err := verifyPage(fr.buf); err != nil {
			t.Fatalf("get %d: page %d while pinned: %v", i, no, err)
		}
		p.unpin(fr)
	}
	if string(held.buf) != string(want) {
		t.Fatal("a pinned frame's bytes changed under it")
	}
	p.unpin(held)
	if len(bufs) > capPages {
		t.Fatalf("pool used %d distinct page buffers, cap is %d", len(bufs), capPages)
	}
}
