package relmodel

import (
	"errors"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"webdis/internal/htmlx"
)

const page = `<html><head><title>Test Page</title></head><body>
Intro text.
<a href="local.html">Local</a>
<a href="http://other.example/">Other</a>
<a href="#sec">Section</a>
<b>bold infon</b>
before rule<hr>
</body></html>`

func buildDB(t *testing.T) *DB {
	t.Helper()
	doc, err := htmlx.Parse("http://site.example/index.html", []byte(page))
	if err != nil {
		t.Fatal(err)
	}
	return Build(doc)
}

func rel(t *testing.T, db *DB, name string) *Relation {
	t.Helper()
	r, err := db.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildDocumentRelation(t *testing.T) {
	document := rel(t, buildDB(t), RelDocument)
	if len(document.Tuples) != 1 {
		t.Fatalf("document tuples = %v", document.Tuples)
	}
	tup := document.Tuples[0]
	if tup[document.Col("url")] != "http://site.example/index.html" {
		t.Errorf("url = %q", tup[0])
	}
	if tup[document.Col("title")] != "Test Page" {
		t.Errorf("title = %q", tup[1])
	}
	if n, err := strconv.Atoi(tup[document.Col("length")]); err != nil || n != len(page) {
		t.Errorf("length = %q, want %d", tup[3], len(page))
	}
}

func TestBuildAnchorRelation(t *testing.T) {
	anchor := rel(t, buildDB(t), RelAnchor)
	if len(anchor.Tuples) != 3 {
		t.Fatalf("anchor tuples = %v", anchor.Tuples)
	}
	types := map[string]int{}
	for _, tup := range anchor.Tuples {
		types[tup[anchor.Col("ltype")]]++
	}
	if types["L"] != 1 || types["G"] != 1 || types["I"] != 1 {
		t.Errorf("ltype histogram = %v", types)
	}
}

func TestBuildRelInfonRelation(t *testing.T) {
	relInfon := rel(t, buildDB(t), RelRelInfon)
	var found bool
	for _, tup := range relInfon.Tuples {
		if tup[relInfon.Col("delimiter")] == "hr" {
			found = true
			text := tup[relInfon.Col("text")]
			if n, _ := strconv.Atoi(tup[relInfon.Col("length")]); n != len(text) {
				t.Errorf("length %q inconsistent with text %q", tup[3], text)
			}
			if tup[relInfon.Col("url")] != "http://site.example/index.html" {
				t.Errorf("url = %q", tup[1])
			}
		}
	}
	if !found {
		t.Fatalf("no hr rel-infon: %v", relInfon.Tuples)
	}
}

// TestBuildSlab: Build's rows are capped windows of one slab, so growing
// one never overwrites its neighbour, and the constructor allocates a
// fixed handful of objects whatever the row count.
func TestBuildSlab(t *testing.T) {
	doc, err := htmlx.Parse("http://site.example/index.html", []byte(page))
	if err != nil {
		t.Fatal(err)
	}
	db := Build(doc)
	var rows []Tuple
	for _, name := range []string{RelDocument, RelAnchor, RelRelInfon} {
		rows = append(rows, rel(t, db, name).Tuples...)
	}
	want := make([]Tuple, len(rows))
	for i, tup := range rows {
		if len(tup) != 4 || cap(tup) != 4 {
			t.Fatalf("row %d: len %d cap %d, want 4 and 4", i, len(tup), cap(tup))
		}
		want[i] = append(Tuple(nil), tup...)
	}
	_ = append(rows[0], "grown")
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("appending to the DOCUMENT tuple changed the rows:\n got  %q\n want %q", rows, want)
	}
	// The DB with its relations, the rows, the slab, and the length
	// numeral of a page of 100 bytes or more.
	if allocs := testing.AllocsPerRun(20, func() { Build(doc) }); allocs > 4 {
		t.Errorf("Build: %.0f allocations, want <= 4", allocs)
	}
}

func TestRelationLookup(t *testing.T) {
	db := buildDB(t)
	for _, name := range []string{"document", "Anchor", "RELINFON"} {
		if _, err := db.Relation(name); err != nil {
			t.Errorf("Relation(%q): %v", name, err)
		}
	}
	if _, err := db.Relation("nosuch"); err == nil {
		t.Error("Relation(nosuch) should fail")
	}
	if rel(t, db, RelDocument).Col("nosuch") != -1 {
		t.Error("Col(nosuch) should be -1")
	}
}

func TestSize(t *testing.T) {
	db := buildDB(t)
	want := len(rel(t, db, RelDocument).Tuples) + len(rel(t, db, RelAnchor).Tuples) + len(rel(t, db, RelRelInfon).Tuples)
	got, err := db.Size()
	if err != nil || got != want {
		t.Errorf("Size = %d, %v, want %d", got, err, want)
	}
	if got < 5 {
		t.Errorf("Size = %d, expected at least 1 doc + 3 anchors + 2 infons", got)
	}
}

// TestLazyRelationLoadsOnce: a NewLazy database reads a relation the
// first time it is asked for, only that relation, and only once however
// many callers ask at the same time; a failed load is retried, not
// remembered.
func TestLazyRelationLoadsOnce(t *testing.T) {
	var mu sync.Mutex
	loads := map[byte]int{}
	failNext := true
	db := NewLazy(func(kind byte) ([]Tuple, error) {
		mu.Lock()
		defer mu.Unlock()
		if kind == KindAnchor && failNext {
			failNext = false
			return nil, errors.New("pool exhausted")
		}
		loads[kind]++
		return []Tuple{{RelOfKind(kind)}}, nil
	}, nil)

	if _, err := db.Relation(RelAnchor); err == nil {
		t.Fatal("a failed load must surface")
	}
	var wg sync.WaitGroup
	var got [8]*Relation
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[g], err = db.Relation("Anchor"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("caller %d got its own relation", g)
		}
	}
	if got[0].Name != RelAnchor || len(got[0].Cols) != 4 || got[0].Tuples[0][0] != RelAnchor {
		t.Fatalf("anchor relation = %+v", got[0])
	}
	if loads[KindAnchor] != 1 || loads[KindDocument] != 0 || loads[KindRelInfon] != 0 {
		t.Fatalf("loads = %v, want anchor once and nothing else", loads)
	}
	if n, err := db.Size(); err != nil || n != 3 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if loads[KindAnchor] != 1 || loads[KindDocument] != 1 || loads[KindRelInfon] != 1 {
		t.Fatalf("loads after Size = %v, want one each", loads)
	}
}

// TestDecodeTupleSharesRecord: decoded fields are substrings of the
// record (one allocation, the tuple), and damage is a typed error.
func TestDecodeTupleSharesRecord(t *testing.T) {
	want := Tuple{"label", "", "http://x.example/", "G"}
	rec := string(AppendTuple(nil, KindAnchor, want)) + "tail"
	kind, got, n, err := DecodeTuple(rec)
	if err != nil || kind != KindAnchor || n != len(rec)-len("tail") || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeTuple = %d %q %d %v", kind, got, n, err)
	}
	if allocs := testing.AllocsPerRun(20, func() { DecodeTuple(rec) }); allocs != 1 {
		t.Errorf("DecodeTuple: %.0f allocations, want 1 (the tuple)", allocs)
	}
	for _, bad := range []string{"", "\x09\x01\x00", "\x01\x80\x00", rec[:n-1], "\x01\x02\x05ab"} {
		if _, _, _, err := DecodeTuple(bad); !errors.Is(err, ErrBadTuple) {
			t.Errorf("DecodeTuple(%q) = %v, want ErrBadTuple", bad, err)
		}
	}
}
