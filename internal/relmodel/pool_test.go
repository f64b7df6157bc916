package relmodel

import (
	"reflect"
	"strings"
	"testing"

	"webdis/internal/htmlx"
)

const pageURL = "http://site.example/index.html"

// buildPooled builds page into a scratch from the pool.
func buildPooled(t *testing.T, src string) *DB {
	t.Helper()
	s := NewScratch()
	doc, err := htmlx.ParseInto(pageURL, []byte(src), &s.Parse)
	if err != nil {
		t.Fatal(err)
	}
	return BuildInto(doc, s)
}

func allTuples(t *testing.T, db *DB) [][]Tuple {
	t.Helper()
	var out [][]Tuple
	for _, k := range kinds {
		rel, err := db.Relation(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rel.Tuples)
	}
	return out
}

func TestBuildIntoMatchesBuild(t *testing.T) {
	want := allTuples(t, buildDB(t))
	// A scratch that held a larger page first must not leak its rows.
	big := buildPooled(t, page+strings.Repeat(`<a href="x.html">x</a><i>more</i>`, 20))
	big.Release()
	db := buildPooled(t, page)
	defer db.Release()
	if got := allTuples(t, db); !reflect.DeepEqual(got, want) {
		t.Errorf("BuildInto:\n got  %q\n want %q", got, want)
	}
}

// TestRetainRelease: the last of the references hands the memory back,
// poisoned, and not one before it.
func TestRetainRelease(t *testing.T) {
	PoisonReleased('#')
	defer PoisonReleased(0)
	db := buildPooled(t, page)
	document, err := db.Relation(RelDocument)
	if err != nil {
		t.Fatal(err)
	}
	text := document.Tuples[0][2]
	want := strings.Clone(text)
	db.Retain()
	db.Retain()
	for i := 0; i < 2; i++ {
		db.Release()
		if text != want {
			t.Fatalf("text reads %q after %d of 3 releases", text, i+1)
		}
	}
	db.Release()
	if text != strings.Repeat("#", len(want)) {
		t.Errorf("text reads %q after the last release, want the poison", text)
	}
	defer func() {
		if recover() == nil {
			t.Error("a fourth Release of three references did not panic")
		}
	}()
	db.Release()
}

// TestReleaseNoOpOnOwnedDBs: Build's, NewLazy's and the zero DB own their
// memory; Retain and Release leave them readable, and Detach copies
// nothing of them.
func TestReleaseNoOpOnOwnedDBs(t *testing.T) {
	PoisonReleased('#')
	defer PoisonReleased(0)
	lazy := NewLazy(func(kind byte) ([]Tuple, error) {
		return []Tuple{{"u", "t", "lazy text", "9"}}, nil
	}, nil)
	for name, db := range map[string]*DB{"Build": buildDB(t), "NewLazy": lazy, "zero": {}} {
		before := allTuples(t, db)
		snapshot := []string{}
		for _, tuples := range before {
			for _, tup := range tuples {
				snapshot = append(snapshot, strings.Clone(strings.Join(tup, "|")))
			}
		}
		for i := 0; i < 3; i++ {
			db.Retain()
			db.Release()
			db.Release()
		}
		i := 0
		for _, tuples := range allTuples(t, db) {
			for _, tup := range tuples {
				if got := strings.Join(tup, "|"); got != snapshot[i] {
					t.Errorf("%s: tuple %d reads %q after Release, want %q", name, i, got, snapshot[i])
				}
				for _, c := range tup {
					if a := testing.AllocsPerRun(5, func() { sink = db.Detach(c) }); a != 0 && !raceEnabled {
						t.Errorf("%s: Detach(%q) allocated", name, c)
					}
				}
				i++
			}
		}
	}
}

var sink string

// TestDetach copies the strings inside the scratch and hands back the
// rest: the copies survive the poisoned release, and the url, title and
// href — never in the scratch — are not copied.
func TestDetach(t *testing.T) {
	PoisonReleased('#')
	defer PoisonReleased(0)
	db := buildPooled(t, page)
	tuples := allTuples(t, db)
	doc, anchor, infon := tuples[0][0], tuples[1][0], tuples[2][0]
	inside := []string{doc[2], anchor[0], infon[2]}
	outside := []string{doc[0], doc[1], anchor[1], anchor[2], anchor[3], infon[0]}
	var kept, wantKept []string
	for _, s := range inside {
		wantKept = append(wantKept, strings.Clone(s))
		kept = append(kept, db.Detach(s))
		if a := testing.AllocsPerRun(5, func() { sink = db.Detach(s) }); a != 1 && !raceEnabled {
			t.Errorf("Detach(%q): %.0f allocations, want 1", s, a)
		}
	}
	for _, s := range outside {
		if a := testing.AllocsPerRun(5, func() { sink = db.Detach(s) }); a != 0 && !raceEnabled {
			t.Errorf("Detach(%q): %.0f allocations, want 0", s, a)
		}
	}
	db.Release()
	if !reflect.DeepEqual(kept, wantKept) {
		t.Errorf("detached strings read %q after Release, want %q", kept, wantKept)
	}
	if inside[0] == wantKept[0] {
		t.Errorf("the undetached text still reads %q: the poison did not reach it", inside[0])
	}
}
