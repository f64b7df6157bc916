package htmlx

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// benchPages are one page of each size class the yardstick parses — a
// tree40-docs page, a fanout-tcp leaf and the campus page of the paper's
// sample query — and a hand-indented page, whose whitespace sends
// appendText to its bytewise loop at every line and every sentence.
func benchPages() []struct {
	name, url string
	src       []byte
} {
	webs := goldenWebs()
	page := func(web int, url string) []byte {
		src, ok := webs[web].web.HTML(url)
		if !ok {
			panic("no page " + url)
		}
		return src
	}
	leaf := "http://t40.example/p363.html"
	return []struct {
		name, url string
		src       []byte
	}{
		{"tree43k", "http://t0.example/p0.html", page(1, "http://t0.example/p0.html")},
		{"fanout280b", leaf, page(2, leaf)},
		{"campus5k", "http://dsl.serc.iisc.ernet.in/index.html", page(0, "http://dsl.serc.iisc.ernet.in/index.html")},
		{"indented16k", "http://a.example/handbook.html", indentedPage()},
	}
}

// indentedPage is markup as written by hand: "\n\t\t" between inline
// elements and two spaces after each sentence of a paragraph.
func indentedPage() []byte {
	var b strings.Builder
	b.WriteString("<html>\n\t<head>\n\t\t<title>Department  Handbook</title>\n\t</head>\n\t<body>\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "\t<p>\n\t\tSection %d of the handbook.  Staff list the courses they teach,\n"+
			"\t\tthe rooms of their office hours,  and the times.  Ask early.\n", i)
		fmt.Fprintf(&b, "\t\t<b>Convener</b>\n\t\t<a href=\"people/p%d.html\">Person %d</a>\n"+
			"\t\t<i>room %d</i>\n\t</p>\n", i, i, 100+i)
	}
	b.WriteString("\t</body>\n</html>\n")
	return []byte(b.String())
}

var sinkDoc *Document

func BenchmarkParse(b *testing.B) {
	for _, p := range benchPages() {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(p.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				doc, err := Parse(p.url, p.src)
				if err != nil {
					b.Fatal(err)
				}
				sinkDoc = doc
			}
		})
	}
}

// TestParseAllocs pins the document path's allocation budget on a 43 KB
// tree page with three plain links: one accumulator the size of the
// source, the Document, its title, its anchor and rel-infon slices and one
// string per href — 8 in all. The tokenizer this one replaced took 140
// allocations and 8.2 x len(src).
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := benchPages()[0]
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		sinkDoc, _ = Parse(p.url, p.src)
	})
	if allocs > 8 {
		t.Errorf("Parse of a %d-byte page: %.0f allocations, want <= 8", len(p.src), allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sinkDoc, _ = Parse(p.url, p.src)
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.5 * float64(len(p.src)); perRun > limit {
		t.Errorf("Parse of a %d-byte page allocated %.0f bytes, want <= %.0f (1.5 x len(src))", len(p.src), perRun, limit)
	}
	t.Logf("%d-byte page: %.0f allocations, %.0f bytes (%.2f x len(src))", len(p.src), allocs, perRun, perRun/float64(len(p.src)))
}
