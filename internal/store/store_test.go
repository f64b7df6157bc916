package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webdis/internal/nodeproc"
	"webdis/internal/relmodel"
	"webdis/internal/webgraph"
)

// buildWeb materializes every site of web under root and returns the
// opened stores keyed by site.
func buildWeb(t *testing.T, root string, web *webgraph.Web, o Options) map[string]*Store {
	t.Helper()
	out := make(map[string]*Store)
	for _, site := range web.Hosts() {
		st, err := Build(root, site, web.URLsAt(site), webGet(web), o)
		if err != nil {
			t.Fatalf("build %s: %v", site, err)
		}
		t.Cleanup(func() { st.Close() })
		out[site] = st
	}
	return out
}

func webGet(web *webgraph.Web) func(string) ([]byte, error) {
	return func(u string) ([]byte, error) {
		html, ok := web.HTML(u)
		if !ok {
			return nil, fmt.Errorf("no page %s", u)
		}
		return html, nil
	}
}

// relation opens one relation of db or fails the test.
func relation(t *testing.T, db *relmodel.DB, name string) *relmodel.Relation {
	t.Helper()
	rel, err := db.Relation(name)
	if err != nil {
		t.Fatalf("Relation(%s): %v", name, err)
	}
	return rel
}

// openOrders is every way an evaluation can come at a database: each
// relation alone, and all three in every order.
var openOrders = [][]string{
	{relmodel.RelDocument}, {relmodel.RelAnchor}, {relmodel.RelRelInfon},
	{relmodel.RelDocument, relmodel.RelAnchor, relmodel.RelRelInfon},
	{relmodel.RelDocument, relmodel.RelRelInfon, relmodel.RelAnchor},
	{relmodel.RelAnchor, relmodel.RelDocument, relmodel.RelRelInfon},
	{relmodel.RelAnchor, relmodel.RelRelInfon, relmodel.RelDocument},
	{relmodel.RelRelInfon, relmodel.RelDocument, relmodel.RelAnchor},
	{relmodel.RelRelInfon, relmodel.RelAnchor, relmodel.RelDocument},
}

// TestBuildOpenDBEquality: every relation of every document's store
// database must be value-identical to the in-RAM Database Constructor's,
// whichever relations are opened and in whatever order.
func TestBuildOpenDBEquality(t *testing.T) {
	web := webgraph.Campus()
	root := t.TempDir()
	stores := buildWeb(t, root, web, Options{})
	for _, u := range web.URLs() {
		html, _ := web.HTML(u)
		want, err := nodeproc.BuildDB(u, html)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range openOrders {
			got, err := stores[webgraph.Host(u)].DB(u)
			if err != nil {
				t.Fatalf("DB(%s): %v", u, err)
			}
			if got.Text == nil {
				t.Fatalf("store DB for %s has no text oracle", u)
			}
			for _, name := range order {
				if g, w := relation(t, got, name), relation(t, want, name); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s of %s (open order %v) differs from BuildDB:\n got %+v\nwant %+v", name, u, order, g, w)
				}
			}
		}
	}
}

// TestReopen: a second Open serves the same DBs without rebuilding.
func TestReopen(t *testing.T) {
	web := webgraph.Figure1()
	root := t.TempDir()
	site := web.Hosts()[0]
	built := 0
	st, err := Build(root, site, web.URLsAt(site), webGet(web), Options{OnDoc: func(string, int) { built++ }})
	if err != nil {
		t.Fatal(err)
	}
	if built != len(web.URLsAt(site)) {
		t.Fatalf("OnDoc ran %d times, want %d", built, len(web.URLsAt(site)))
	}
	st.Close()

	reparsed := 0
	st2, err := Open(root, site, Options{OnDoc: func(string, int) { reparsed++ }})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if reparsed != 0 {
		t.Fatalf("reopen parsed %d documents, want 0", reparsed)
	}
	for _, u := range web.URLsAt(site) {
		if _, err := st2.DB(u); err != nil {
			t.Fatalf("DB(%s) after reopen: %v", u, err)
		}
	}
}

func TestOpenAbsent(t *testing.T) {
	_, err := Open(t.TempDir(), "nowhere.example", Options{})
	if !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("err = %v, want ErrNotBuilt", err)
	}
}

// TestTornWriteDetection: flipping any heap byte must fail open with
// ErrCorrupt; shortening the file must fail with ErrTruncated.
func TestTornWriteDetection(t *testing.T) {
	web := webgraph.Figure1()
	root := t.TempDir()
	site := web.Hosts()[0]
	st, err := Build(root, site, web.URLsAt(site), webGet(web), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	heap := filepath.Join(Dir(root, site), heapFile)
	blob, err := os.ReadFile(heap)
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range []int{0, 5, 100, len(blob) - 1} {
		dam := append([]byte(nil), blob...)
		dam[off] ^= 0x40
		if err := os.WriteFile(heap, dam, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(root, site, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}

	if err := os.WriteFile(heap, blob[:len(blob)-PageSize/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(root, site, Options{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated heap: err = %v, want ErrTruncated", err)
	}

	// Catalog damage is ErrCorrupt too.
	if err := os.WriteFile(heap, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cat := filepath.Join(Dir(root, site), catalogFile)
	cb, _ := os.ReadFile(cat)
	cb[len(cb)/2] ^= 0x01
	os.WriteFile(cat, cb, 0o644)
	if _, err := Open(root, site, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged catalog: err = %v, want ErrCorrupt", err)
	}
}

// TestSpannedRecords exercises records far larger than one page through
// the writer and reader.
func TestSpannedRecords(t *testing.T) {
	var sink pageSink
	pw := newPageWriter(&sink)
	var want []relmodel.Tuple
	var locs []struct {
		page uint32
		slot uint16
	}
	for i := 0; i < 20; i++ {
		tup := relmodel.Tuple{
			fmt.Sprintf("field-%d", i),
			strings.Repeat(fmt.Sprintf("x%d", i), 40+i*700), // spans several pages when large
		}
		pg, sl, err := pw.append(relmodel.AppendTuple(nil, relmodel.KindDocument, tup))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tup)
		locs = append(locs, struct {
			page uint32
			slot uint16
		}{pg, sl})
	}
	npages, err := pw.finish()
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(sink.readerAt(), npages, 8, Counters{})
	// Once materialising every record, once skipping every record: the
	// cursor must land on the same slots either way.
	for _, read := range []byte{relmodel.KindDocument, relmodel.KindAnchor} {
		c := cursor{pool: p, page: locs[0].page, slot: int(locs[0].slot)}
		for i, w := range want {
			if c.page != locs[i].page || c.slot != int(locs[i].slot) {
				t.Fatalf("record %d: cursor at %d/%d, written at %d/%d", i, c.page, c.slot, locs[i].page, locs[i].slot)
			}
			got, ok, err := c.next(read)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if ok != (read == relmodel.KindDocument) || ok && !reflect.DeepEqual(got, w) {
				t.Fatalf("record %d mismatch: ok=%v got %q", i, ok, got)
			}
		}
		c.release()
	}
	if p.resident() > 8 {
		t.Fatalf("pool resident %d exceeds cap 8", p.resident())
	}
}

// TestOracleMatchesScan is the differential property: on the campus web,
// the oracle's decided answers must agree with the evaluator's
// strings.Contains(ToLower, ToLower), and out-of-class literals must be
// declined.
func TestOracleMatchesScan(t *testing.T) {
	web := webgraph.Campus()
	root := t.TempDir()
	stores := buildWeb(t, root, web, Options{})
	lits := []string{
		"convener", "CONVENER", "lab", "xanadu", "zzznope", "da", "ly",
		"q",        // too short: declined
		"two word", // space: declined
		"a-b",      // punctuation: declined
		"naïve",    // non-ASCII: declined
		"",         // empty: declined
	}
	for _, u := range web.URLs() {
		db, err := stores[webgraph.Host(u)].DB(u)
		if err != nil {
			t.Fatal(err)
		}
		doc := relation(t, db, relmodel.RelDocument).Tuples[0]
		for colIdx, col := range []string{"title", "text"} {
			val := doc[2] // text
			if col == "title" {
				val = doc[1]
			}
			_ = colIdx
			for _, lit := range lits {
				hit, decided := db.Text.MatchContains(col, lit)
				want := strings.Contains(strings.ToLower(val), strings.ToLower(lit))
				indexable := indexableLit(strings.ToLower(lit))
				if decided != indexable {
					t.Fatalf("%s %s contains %q: decided=%v, want %v", u, col, lit, decided, indexable)
				}
				if decided && hit != want {
					t.Fatalf("%s %s contains %q: oracle=%v scan=%v", u, col, lit, hit, want)
				}
			}
		}
	}
}

// TestOracleUnknownColumnDeclines pins the fallback for non-indexed
// columns.
func TestOracleUnknownColumnDeclines(t *testing.T) {
	ix := &textIndex{fields: map[string]map[string][]uint32{"text": {"abc": {0}}}}
	ix.memo = map[string]map[uint32]bool{}
	ix.hits = Counters{}.norm().IndexHits
	o := docOracle{ix: ix, id: 0}
	if _, decided := o.MatchContains("url", "abc"); decided {
		t.Fatal("url column must be declined")
	}
	if hit, decided := o.MatchContains("text", "ab"); !decided || !hit {
		t.Fatalf("text/ab: hit=%v decided=%v, want true/true", hit, decided)
	}
}

// TestNoTextIndexOption: built or opened without the index, DBs carry no
// oracle.
func TestNoTextIndexOption(t *testing.T) {
	web := webgraph.Figure1()
	root := t.TempDir()
	site := web.Hosts()[0]
	st, err := Build(root, site, web.URLsAt(site), webGet(web), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(root, site, Options{NoTextIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	db, err := st2.DB(web.URLsAt(site)[0])
	if err != nil {
		t.Fatal(err)
	}
	if db.Text != nil {
		t.Fatal("NoTextIndex open still attached an oracle")
	}
}

// pageSink collects written pages in memory for writer/reader tests.
type pageSink struct{ b []byte }

func (s *pageSink) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *pageSink) readerAt() *memReaderAt      { return &memReaderAt{s.b} }

type memReaderAt struct{ b []byte }

func (m *memReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}
