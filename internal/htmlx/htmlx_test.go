package htmlx

import (
	"strings"
	"testing"
	"testing/quick"

	"webdis/internal/pre"
)

const samplePage = `<!doctype html>
<html>
<head><title>Database   Systems Lab</title>
<style>body { color: red }</style>
</head>
<body>
<h1>Welcome to the DSL</h1>
<p>We study <b>query processing</b> and <i>transaction management</i>.</p>
<a href="people.html">People</a>
<a href="/projects/diaspora.html">DIASPORA</a>
<a href="http://www.iisc.ernet.in/">IISc</a>
<a href="#top">Back to top</a>
CONVENER Prof. Jayant Haritsa
<hr>
<script>alert("not text")</script>
Footer text &amp; more &#65;
</body>
</html>`

func parseSample(t *testing.T) *Document {
	t.Helper()
	doc, err := Parse("http://dsl.serc.iisc.ernet.in/index.html", []byte(samplePage))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseTitle(t *testing.T) {
	doc := parseSample(t)
	if doc.Title != "Database Systems Lab" {
		t.Errorf("Title = %q", doc.Title)
	}
}

func TestParseAnchors(t *testing.T) {
	doc := parseSample(t)
	if len(doc.Anchors) != 4 {
		t.Fatalf("got %d anchors, want 4: %+v", len(doc.Anchors), doc.Anchors)
	}
	cases := []struct {
		href  string
		label string
		typ   pre.Link
	}{
		{"http://dsl.serc.iisc.ernet.in/people.html", "People", pre.Local},
		{"http://dsl.serc.iisc.ernet.in/projects/diaspora.html", "DIASPORA", pre.Local},
		{"http://www.iisc.ernet.in/", "IISc", pre.Global},
		{"http://dsl.serc.iisc.ernet.in/index.html#top", "Back to top", pre.Interior},
	}
	for i, c := range cases {
		a := doc.Anchors[i]
		if a.Href != c.href || a.Label != c.label || a.Type != c.typ {
			t.Errorf("anchor %d = %+v, want %+v", i, a, c)
		}
		if a.Base != "http://dsl.serc.iisc.ernet.in/index.html" {
			t.Errorf("anchor %d base = %q", i, a.Base)
		}
	}
}

func TestParseRelInfons(t *testing.T) {
	doc := parseSample(t)
	find := func(delim, substr string) *RelInfon {
		for i := range doc.Infons {
			if doc.Infons[i].Delimiter == delim && strings.Contains(doc.Infons[i].Text, substr) {
				return &doc.Infons[i]
			}
		}
		return nil
	}
	if r := find("b", "query processing"); r == nil {
		t.Errorf("missing <b> rel-infon: %+v", doc.Infons)
	}
	if r := find("i", "transaction management"); r == nil {
		t.Errorf("missing <i> rel-infon")
	}
	if r := find("h1", "Welcome to the DSL"); r == nil {
		t.Errorf("missing <h1> rel-infon")
	}
	// The hr rel-infon is the text preceding the rule — it must contain the
	// convener line (the paper's Example Query 2 depends on this).
	r := find("hr", "CONVENER Prof. Jayant Haritsa")
	if r == nil {
		t.Fatalf("missing hr rel-infon: %+v", doc.Infons)
	}
}

func TestParseTextAndEntities(t *testing.T) {
	doc := parseSample(t)
	if !strings.Contains(doc.Text, "Footer text & more A") {
		t.Errorf("entities not decoded in %q", doc.Text)
	}
	if strings.Contains(doc.Text, "alert") {
		t.Errorf("script content leaked into text: %q", doc.Text)
	}
	if strings.Contains(doc.Text, "color: red") {
		t.Errorf("style content leaked into text: %q", doc.Text)
	}
	if doc.Length != len(samplePage) {
		t.Errorf("Length = %d, want %d", doc.Length, len(samplePage))
	}
}

func TestLinksOf(t *testing.T) {
	doc := parseSample(t)
	if got := len(doc.LinksOf(pre.Local)); got != 2 {
		t.Errorf("local links = %d, want 2", got)
	}
	if got := len(doc.LinksOf(pre.Global)); got != 1 {
		t.Errorf("global links = %d, want 1", got)
	}
	if got := len(doc.LinksOf(pre.Interior)); got != 1 {
		t.Errorf("interior links = %d, want 1", got)
	}
}

func TestNestedRelInfons(t *testing.T) {
	doc, err := Parse("http://a.example/x.html",
		[]byte(`<b>bold <i>both</i> tail</b>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Infons) != 2 {
		t.Fatalf("infons = %+v", doc.Infons)
	}
	if doc.Infons[0].Delimiter != "i" || doc.Infons[0].Text != "both" {
		t.Errorf("inner infon = %+v", doc.Infons[0])
	}
	if doc.Infons[1].Delimiter != "b" || doc.Infons[1].Text != "bold both tail" {
		t.Errorf("outer infon = %+v", doc.Infons[1])
	}
}

func TestMultipleHRSegments(t *testing.T) {
	doc, err := Parse("http://a.example/x.html",
		[]byte(`first segment<hr>second segment<hr>trailing tail`))
	if err != nil {
		t.Fatal(err)
	}
	var hrs []string
	for _, r := range doc.Infons {
		if r.Delimiter == "hr" {
			hrs = append(hrs, r.Text)
		}
	}
	want := []string{"first segment", "second segment"}
	if len(hrs) != len(want) {
		t.Fatalf("hr segments = %v, want %v", hrs, want)
	}
	for i := range want {
		if hrs[i] != want[i] {
			t.Errorf("segment %d = %q, want %q", i, hrs[i], want[i])
		}
	}
}

func TestMalformedHTML(t *testing.T) {
	// Unclosed tags, stray '<', uppercase names, unquoted attributes.
	doc, err := Parse("http://a.example/x.html",
		[]byte(`<B>never closed <A HREF=people.html>people 1 < 2`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Anchors) != 1 {
		t.Fatalf("anchors = %+v", doc.Anchors)
	}
	a := doc.Anchors[0]
	if a.Href != "http://a.example/people.html" || a.Type != pre.Local {
		t.Errorf("anchor = %+v", a)
	}
	if !strings.Contains(doc.Text, "1 < 2") {
		t.Errorf("stray < lost: %q", doc.Text)
	}
}

func TestBadBaseURL(t *testing.T) {
	if _, err := Parse("http://a b/%%", []byte("<p>x</p>")); err == nil {
		t.Fatal("want error for unparseable base URL")
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := map[string]string{
		"a &amp; b":     "a & b",
		"&lt;tag&gt;":   "<tag>",
		"&#65;&#x42;":   "AB",
		"&unknown;":     "&unknown;",
		"no entities":   "no entities",
		"&middot;":      "·",
		"&#xZZ; &amp;":  "&#xZZ; &",
		"tail &":        "tail &",
		"&toolongname;": "&toolongname;",
	}
	for in, want := range cases {
		if got := DecodeEntities(in); got != want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTokenizerSelfClosing(t *testing.T) {
	z := NewTokenizer([]byte(`<br/><img src="x.png" />text`))
	tok, _ := z.Next()
	if tok.Type != SelfClosingTag || tok.Tag != TagBR {
		t.Errorf("tok = %+v", tok)
	}
	tok, _ = z.Next()
	if tok.Type != SelfClosingTag || tok.Tag != TagOther || string(tok.Data) != "img" {
		t.Errorf("tok = %+v", tok)
	}
	if v, ok := tok.Attr("src"); !ok || string(v) != "x.png" {
		t.Errorf("src attr = %q, %v", v, ok)
	}
	tok, _ = z.Next()
	if tok.Type != TextToken || string(tok.Data) != "text" {
		t.Errorf("tok = %+v", tok)
	}
	if _, ok := z.Next(); ok {
		t.Error("expected end of input")
	}
}

func TestTokenizerComments(t *testing.T) {
	z := NewTokenizer([]byte(`<!-- hidden <a href="x">no</a> -->visible`))
	tok, _ := z.Next()
	if tok.Type != CommentToken {
		t.Fatalf("tok = %+v", tok)
	}
	tok, _ = z.Next()
	if tok.Type != TextToken || string(tok.Data) != "visible" {
		t.Errorf("tok = %+v", tok)
	}
}

func TestCommentedAnchorIgnored(t *testing.T) {
	doc, err := Parse("http://a.example/", []byte(`<!-- <a href="x.html">x</a> --><a href="y.html">y</a>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Anchors) != 1 || doc.Anchors[0].Label != "y" {
		t.Errorf("anchors = %+v", doc.Anchors)
	}
}

func TestQuickParseNeverPanics(t *testing.T) {
	// Property: Parse terminates without panicking on arbitrary bytes and
	// reports a length equal to the input length.
	f := func(src []byte) bool {
		doc, err := Parse("http://fuzz.example/doc.html", src)
		if err != nil {
			return false
		}
		return doc.Length == len(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickEntityDecodeIdempotentOnPlain(t *testing.T) {
	// Property: strings without '&' are unchanged.
	f := func(s string) bool {
		clean := strings.ReplaceAll(s, "&", "")
		return DecodeEntities(clean) == clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// collapseBytewise is the definition appendText implements: every
// whitespace byte becomes a space unless it would lead the text or follow
// another space.
func collapseBytewise(out []byte, run []byte) []byte {
	for _, c := range run {
		if isSpace(c) {
			if len(out) > 0 && out[len(out)-1] != ' ' {
				out = append(out, ' ')
			}
			continue
		}
		out = append(out, c)
	}
	return out
}

func TestAppendTextMatchesBytewise(t *testing.T) {
	// Property: however a text is cut into runs, the bulk-copying
	// appendText produces what the bytewise definition does.
	const alphabet = "ab \t\n\r\f\v\x00\x1f\xc3\xa9  "
	f := func(picks []byte, cuts []uint8) bool {
		src := make([]byte, len(picks))
		for i, p := range picks {
			src[i] = alphabet[int(p)%len(alphabet)]
		}
		var got, want []byte
		for rest := src; ; {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, int(cuts[0])%8)
				cuts = cuts[1:]
			}
			got = appendText(got, rest[:n])
			want = collapseBytewise(want, rest[:n])
			if rest = rest[n:]; len(rest) == 0 {
				break
			}
		}
		return string(got) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
