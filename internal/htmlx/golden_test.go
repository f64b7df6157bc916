package htmlx

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"webdis/internal/webgraph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current Parse")

const goldenFile = "golden.txt"

// handCases are the hand-written pages: every input of htmlx_test.go plus
// one case per kind of sloppiness the tokenizer promises to absorb. The
// golden test pins what Parse makes of each; FuzzParse starts from them.
var handCases = []struct{ name, url, src string }{
	{"sample", "http://dsl.serc.iisc.ernet.in/index.html", samplePage},
	{"nested-infons", "http://a.example/x.html", `<b>bold <i>both</i> tail</b>`},
	{"hr-segments", "http://a.example/x.html", `first segment<hr>second segment<hr>trailing tail`},
	{"malformed", "http://a.example/x.html", `<B>never closed <A HREF=people.html>people 1 < 2`},
	{"self-closing", "http://a.example/x.html", `<br/><img src="x.png" />text`},
	{"comment", "http://a.example/x.html", `<!-- hidden <a href="x">no</a> -->visible`},
	{"commented-anchor", "http://a.example/", `<!-- <a href="x.html">x</a> --><a href="y.html">y</a>`},
	{"entities", "http://a.example/x.html",
		`<title>R&amp;D &lt;lab&gt;</title><p>a &amp; b &#65;&#x42; &unknown; &middot; &#xZZ; tail &amp</p>` +
			`<a href="q.html?a=1&amp;b=2">x&nbsp;&nbsp;y &COPY; &mdash;</a> &toolongname; &#32;&#10;end &`},
	{"unquoted-attrs", "http://a.example/dir/x.html",
		`<a href=one.html class=k>one</a><a class=k href=../two.html>two</a><a href='three.html#f'>three</a><a href=>empty</a><a name=top>named</a>`},
	{"upper-case-tags", "http://a.example/x.html",
		`<HTML><HEAD><TITLE>Upper  Case</TITLE></HEAD><BODY><H1>Head</H1><P>para<BR>line<HR><TD>cell</TD><A HREF="HTTP://B.EXAMPLE/Y.HTML">Y</A><SCRIPT>var x = "<b>no</b>";</SCRIPT><STYLE>b{}</STYLE>after</BODY></HTML>`},
	{"unclosed-a", "http://a.example/x.html", `<p>lead <a href="next.html">label runs <b>to the</b> end`},
	{"comments", "http://a.example/x.html", `a<!---->b<!-- x -- y -->c<!-- unterminated <b>bold</b>`},
	{"doctype", "http://a.example/x.html", "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 3.2//EN\">\n<?xml version=\"1.0\"?><title>t</title>body<!unterminated"},
	{"br-slash", "http://a.example/x.html", `one<br/>two<br />three<BR/>four<p/>five<hr/>six<a href="z.html"/>seven`},
	{"interior-links", "http://a.example/x.html", `<a href="#frag">f</a><a href="x.html#other">o</a><a href="/x.html">self</a><a href="http://[bad">bad</a><a href="mailto:a@b">m</a>`},
	{"whitespace", "http://a.example/x.html", "  lead\t\n<b>  padded \r\n text </b>\f<i> </i><li>item<li>second</li>  tail  "},
	{"title-mid-document", "http://a.example/x.html", `before<title> mid <b>bold</b> title </title>after<title>second</title>`},
	{"stray-lt", "http://a.example/x.html", `1 < 2 <3 <> </> < a<`},
	{"attr-edge", "http://a.example/x.html", `<a href = "sp.html" >sp</a><a / href="sl.html">sl</a><a href="unterminated>rest`},
	{"empty", "http://a.example/x.html", ``},
	{"utf8", "http://a.example/x.html", `<title>Ünïcode</title><b>naïve café</b> — “quoted” <a href="ü.html">Ⱥ link</a>`},
}

// digest is the canonical reading of a Document: every string the
// relational model takes from it, in document order.
func digest(doc *Document) string {
	h := sha256.New()
	put := func(s string) { fmt.Fprintf(h, "%d:%s\n", len(s), s) }
	put(doc.URL)
	put(doc.Title)
	put(doc.Text)
	fmt.Fprintf(h, "length %d anchors %d infons %d\n", doc.Length, len(doc.Anchors), len(doc.Infons))
	for _, a := range doc.Anchors {
		put(a.Label)
		put(a.Base)
		put(a.Href)
		put(a.Type.String())
	}
	for _, r := range doc.Infons {
		put(r.Delimiter)
		put(r.Text)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

type namedWeb struct {
	name string
	web  *webgraph.Web
}

// goldenWebs are the generated corpora the digests cover: the campus web
// and the three parsing workloads of the yardstick at generator seed 7000.
var goldenWebs = sync.OnceValue(func() []namedWeb {
	tree := func(depth, perSite int, frac float64, words int) *webgraph.Web {
		return webgraph.Tree(webgraph.TreeOpts{Fanout: 3, Depth: depth, PagesPerSite: perSite,
			MarkerFrac: frac, FillerWords: words, Seed: 7000})
	}
	return []namedWeb{
		{"campus", webgraph.Campus()},
		{"tree40-docs", tree(3, 1, 0.6, 5000)},
		{"fanout-tcp", tree(5, 9, 1.0, 8)},
		{"tree40-watch", tree(3, 1, 0.6, 2000)},
	}
})

// goldenLines parses every pinned input and returns "name digest" lines.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	var s Scratch // one scratch through every input, as a pool reuses it
	add := func(name, url string, src []byte) {
		doc, err := Parse(url, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, name+" "+digest(doc))
		into, err := ParseInto(url, src, &s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := digest(into); d != digest(doc) {
			t.Errorf("%s: ParseInto into a reused scratch differs from Parse", name)
		}
	}
	for _, c := range handCases {
		add("hand/"+c.name, c.url, []byte(c.src))
	}
	for _, g := range goldenWebs() {
		for _, u := range g.web.URLs() {
			src, _ := g.web.HTML(u)
			add(g.name+"/"+u, u, src)
		}
	}
	return lines
}

// TestGoldenDigests holds Parse to the documents the previous tokenizer
// produced: the digests were recorded before the span tokenizer replaced
// it, so a difference here is a change in what queries see.
func TestGoldenDigests(t *testing.T) {
	got := goldenLines(t)
	path := filepath.Join("testdata", goldenFile)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d pinned inputs, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("document differs from the pinned parse:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
