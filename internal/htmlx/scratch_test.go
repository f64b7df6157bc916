package htmlx

import (
	"strings"
	"testing"
)

// TestLookupTagAllNames holds the length-and-bytes switch to the names
// table in every case folding, and to TagOther for everything else.
func TestLookupTagAllNames(t *testing.T) {
	for tag, name := range tagNames {
		if tag == int(TagOther) {
			continue
		}
		mixed := []byte(name)
		for i := 0; i < len(mixed); i += 2 {
			mixed[i] = mixed[i] - 'a' + 'A'
		}
		for _, n := range []string{name, strings.ToUpper(name), string(mixed)} {
			if got := lookupTag([]byte(n)); got != Tag(tag) {
				t.Errorf("lookupTag(%q) = %v, want %v", n, got, Tag(tag))
			}
		}
	}
	others := []string{
		"", "x", "h", "h0", "h7", "hx", "h11", "tt", "td1", "br1", "em2", "ul", "ol", "span",
		"img", "titl", "titles", "scripts", "blockquot", "blockquotes", "blockquote1",
		"addresses", "captio", "a-b", "\xc4\xb0", "DIV\x00", "Ⓐ",
	}
	for _, n := range others {
		if got := lookupTag([]byte(n)); got != TagOther {
			t.Errorf("lookupTag(%q) = %v, want TagOther", n, got)
		}
	}
}

// TestScratchDetach copies exactly the strings that view the accumulator:
// a copy outlives the accumulator's poisoning, and a string from elsewhere
// is handed back without an allocation.
func TestScratchDetach(t *testing.T) {
	var s Scratch
	doc, err := ParseInto("http://a.example/x.html", []byte(samplePage), &s)
	if err != nil {
		t.Fatal(err)
	}
	inside := []string{doc.Text, doc.Text[3:9], doc.Anchors[0].Label, doc.Infons[0].Text}
	var kept []string
	for _, str := range inside {
		want := strings.Clone(str)
		if d := s.Detach(str); d != want {
			t.Fatalf("Detach(%q) = %q", str, d)
		}
		kept = append(kept, s.Detach(str))
		if a := testing.AllocsPerRun(10, func() { sinkString = s.Detach(str) }); !raceEnabled && a != 1 {
			t.Errorf("Detach(%q): %.0f allocations, want 1 (the copy)", str, a)
		}
	}
	outside := []string{doc.URL, doc.Title, doc.Anchors[0].Href, strings.Clone(doc.Text), "", "hr"}
	for _, str := range outside {
		if a := testing.AllocsPerRun(10, func() { sinkString = s.Detach(str) }); !raceEnabled && a != 0 {
			t.Errorf("Detach(%q): %.0f allocations, want 0 (not in the accumulator)", str, a)
		}
	}
	s.Poison('#')
	if want := strings.Repeat("#", len(inside[1])); inside[1] != want {
		t.Errorf("poisoned view reads %q, want %q", inside[1], want)
	}
	for i, str := range kept {
		if strings.Contains(str, "#") {
			t.Errorf("detached copy %d reads %q after the accumulator was poisoned", i, str)
		}
	}
	if doc.URL != "http://a.example/x.html" || doc.Title != "Database Systems Lab" {
		t.Errorf("strings outside the accumulator changed: %q, %q", doc.URL, doc.Title)
	}
	var empty Scratch
	if d := empty.Detach("text"); d != "text" {
		t.Errorf("empty scratch: Detach = %q", d)
	}
}

var sinkString string

// TestParseIntoAllocs pins a steady-state ParseInto of the 43 KB tree page
// at one string per href: the accumulator, the Document and the anchor and
// rel-infon slices are the scratch's, and the title is its own.
func TestParseIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := benchPages()[0]
	var s Scratch
	allocs := testing.AllocsPerRun(20, func() {
		sinkDoc, _ = ParseInto(p.url, p.src, &s)
	})
	if want := float64(len(sinkDoc.Anchors) + 1); allocs > want {
		t.Errorf("ParseInto of a %d-byte page: %.0f allocations, want <= %.0f (hrefs and the title)", len(p.src), allocs, want)
	}
	t.Logf("%d-byte page into a warm scratch: %.0f allocations", len(p.src), allocs)
}
