package plan

import (
	"reflect"
	"testing"

	"webdis/internal/htmlx"
	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
)

// TestDistinctPooledAcrossNodes runs one compiled tree at two nodes in a
// row whose databases are pooled, poisoned at Release and likely the same
// scratch: Distinct's keys view the first node's text, so its Close must
// forget them before the Release, or the second node's rows come out
// missing (a stale key that still reads the same) or wrong (a key that
// changed under the map). Each node's answer must equal a fresh Eval over
// a database that owns its memory.
func TestDistinctPooledAcrossNodes(t *testing.T) {
	relmodel.PoisonReleased('#')
	defer relmodel.PoisonReleased(0)
	pages := [][2]string{
		{"http://a.example/1.html", `<a href="x.html">alpha</a><a href="y.html">beta</a><a href="z.html">alpha</a><b>bold one</b><i>beta</i>`},
		{"http://b.example/2.html", `<a href="x.html">alpha</a><a href="w.html">gamma</a><b>bold one</b><b>bold two</b>`},
		{"http://c.example/3.html", `<a href="v.html">beta</a><a href="u.html">alpha</a><i>bold one</i>`},
	}
	col := func(v, c string) nodequery.ColRef { return nodequery.ColRef{Var: v, Col: c} }
	queries := map[string]*nodequery.Query{
		"one column": {Vars: []nodequery.VarDecl{{Name: "a", Rel: "anchor"}},
			Select: []nodequery.ColRef{col("a", "label")}},
		"two columns": {Vars: []nodequery.VarDecl{{Name: "a", Rel: "anchor"}, {Name: "r", Rel: "relinfon"}},
			Select: []nodequery.ColRef{col("a", "label"), col("r", "text")}},
	}
	for name, q := range queries {
		tree, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for _, p := range pages {
				owned, err := htmlx.Parse(p[0], []byte(p[1]))
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := Eval(q, relmodel.Build(owned), nil)
				if err != nil {
					t.Fatal(err)
				}
				s := relmodel.NewScratch()
				doc, err := htmlx.ParseInto(p[0], []byte(p[1]), &s.Parse)
				if err != nil {
					t.Fatal(err)
				}
				db := relmodel.BuildInto(doc, s)
				got, _, err := tree.Eval(db, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s at %s: got %q, want %q", name, p[0], got.Rows, want.Rows)
				}
				db.Release()
			}
		}
	}
}
