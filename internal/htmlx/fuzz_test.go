package htmlx

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

// The two pages that broke the tokenizer when it looked for </script> in a
// lowered copy of the rest of the page: U+023A is two bytes and lowers to
// the three-byte U+2C65, so offsets found in the copy overshot the source.
const (
	rawtextOvershoot = "<script>ȺȺȺȺȺȺȺȺȺȺȺȺ</script>"
	rawtextSwallowed = "<p>before</p><script>ȺȺȺ var s;</script><p>after one two three</p>"
)

func TestRawTextLengthChangingRunes(t *testing.T) {
	// Sliced the source out of range.
	doc, err := Parse("http://a.example/x.html", []byte(rawtextOvershoot))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Text != "" {
		t.Errorf("script content leaked into text: %q", doc.Text)
	}
	// Landed inside the close tag, never left the script, dropped the rest.
	doc, err = Parse("http://a.example/x.html", []byte(rawtextSwallowed))
	if err != nil {
		t.Fatal(err)
	}
	if want := "before after one two three"; doc.Text != want {
		t.Errorf("Text = %q, want %q", doc.Text, want)
	}
}

func TestRawTextCloseTagAnyCase(t *testing.T) {
	doc, err := Parse("http://a.example/x.html",
		[]byte(`a<SCRIPT>if (1 < 2) { s = "</b>" }</ScRiPt >b<style>p{}</STYLE>c<script>unterminated`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Text != "abc" {
		t.Errorf("Text = %q, want %q", doc.Text, "abc")
	}
}

// rawtextLongerName hides markup behind a close tag whose name only begins
// with "script": the anchor is script content, not a link to follow.
const rawtextLongerName = `<script>s="</scripts>"; t="<a href='http://evil.example/x.html'>"</script>after`

func TestRawTextCloseTagNameEnds(t *testing.T) {
	doc, err := Parse("http://a.example/x.html", []byte(rawtextLongerName))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Anchors) != 0 {
		t.Errorf("anchors = %+v, want none", doc.Anchors)
	}
	if doc.Text != "after" {
		t.Errorf("Text = %q, want %q", doc.Text, "after")
	}
	// Whatever ends the name — space, '/', '>' or the input — closes it.
	for src, want := range map[string]string{
		"<script>x</script\n>y": "y",
		"<script>x</script/>y":  "y",
		"<style>x</STYLE>y":     "y",
		"<script>x</script":     "",
		"<script>x</scriptx>y":  "",
	} {
		doc, err := Parse("http://a.example/x.html", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		if doc.Text != want {
			t.Errorf("%q: Text = %q, want %q", src, doc.Text, want)
		}
	}
}

const fuzzURL = "http://fuzz.example/dir/doc.html"

func FuzzParse(f *testing.F) {
	f.Add([]byte(rawtextOvershoot))
	f.Add([]byte(rawtextSwallowed))
	f.Add([]byte(rawtextLongerName))
	for _, c := range handCases {
		f.Add([]byte(c.src))
	}
	for _, p := range benchPages()[1:] { // a tree leaf, the campus page, the indented page
		f.Add(p.src)
	}
	other := []byte(samplePage)
	f.Fuzz(func(t *testing.T, src []byte) {
		doc, err := Parse(fuzzURL, src)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Length != len(src) {
			t.Errorf("Length = %d, want %d", doc.Length, len(src))
		}
		// Labels and rel-infons are trimmed stretches of the text. (On
		// invalid UTF-8 a stretch may begin inside what the whole text
		// reads as one space rune, and be trimmed differently.)
		if utf8.Valid(src) {
			for _, a := range doc.Anchors {
				if !strings.Contains(doc.Text, a.Label) {
					t.Errorf("anchor label %q not in text %q", a.Label, doc.Text)
				}
			}
			for _, r := range doc.Infons {
				if !strings.Contains(doc.Text, r.Text) {
					t.Errorf("rel-infon %q not in text %q", r.Text, doc.Text)
				}
			}
		}
		// No scratch state survives a Parse: the same page parses the same
		// after another page went through.
		want := digest(doc)
		if _, err := Parse(fuzzURL, other); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(fuzzURL, bytes.Clone(src))
		if err != nil {
			t.Fatal(err)
		}
		if digest(again) != want {
			t.Errorf("second parse differs:\n got  %+v\n want %+v", again, doc)
		}
		// ParseInto agrees through a scratch another page went through.
		var sc Scratch
		if _, err := ParseInto(fuzzURL, other, &sc); err != nil {
			t.Fatal(err)
		}
		into, err := ParseInto(fuzzURL, src, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if digest(into) != want {
			t.Errorf("ParseInto differs:\n got  %+v\n want %+v", into, doc)
		}
		// No string of the Document aliases the caller's bytes.
		for i := range src {
			src[i] = 'X'
		}
		if digest(doc) != want {
			t.Errorf("document changed when src was overwritten: %+v", doc)
		}
	})
}

// TestParseConcurrent parses different pages from several goroutines at
// once and holds each to its serial result; run it under -race.
func TestParseConcurrent(t *testing.T) {
	type page struct {
		url string
		src []byte
	}
	var pages []page
	for _, c := range handCases {
		pages = append(pages, page{c.url, []byte(c.src)})
	}
	for _, p := range benchPages() {
		pages = append(pages, page{p.url, p.src})
	}
	serial := make([]*Document, len(pages))
	for i, p := range pages {
		doc, err := Parse(p.url, p.src)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = doc
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range pages {
				i := (k + w*len(pages)/workers) % len(pages) // each worker on a different page
				doc, err := Parse(pages[i].url, pages[i].src)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(doc, serial[i]) {
					t.Errorf("worker %d: page %d differs from its serial parse", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
