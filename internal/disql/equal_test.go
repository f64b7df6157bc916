package disql

import (
	"reflect"
	"testing"

	"webdis/internal/nodequery"
)

// equalFixtures are the parser fixtures whose node-queries
// TestQueryEqualIsDeepEqual compares.
var equalFixtures = []string{
	exampleQuery1,
	exampleQuery2,
	groupedQuery,
	`select d.url from document d such that ("http://a.example/x", "http://b.example/y") G|L d where d.title contains "z"`,
	`select d.url, a.href from document d such that "http://a.example/" N|(L|G)*3 d, anchor a where a.ltype = "G" and not (d.length < 100 or d.text contains "draft")`,
	`select d.url, a.href from document d such that "http://a.example/" N|(L|G)*3 d, anchor a where a.ltype = "G" and not (d.length < 100 or d.text contains "drafts")`,
	`select d.url, a.href from document d such that "http://a.example/" N|(L|G)*3 d, anchor a where a.ltype = "G" and not (d.length < 100 and d.text contains "draft")`,
	`select d1.url from document d0 such that "http://a.example/" L d0, document d1 such that d0 G·(L*2) d1 where d1.text not contains "spam"`,
	`select d1.url from document d0 such that "http://h.example/" G d0, where d0.title contains "Topic" document d1 such that d0 L d1 where d1.title contains d0.title and d1.length > d0.length`,
	`select d1.url from document d0 such that "http://h.example/" G d0, where d0.title contains "Topic" document d1 such that d0 L d1 where d1.title contains d0.title and d1.length > d0.url`,
	`select a.href, b.href from document d such that "http://s/" L* d, anchor a, anchor b where a.label = b.label and a.href != b.href`,
	`select a.href, b.href from document d such that "http://s/" L* d, anchor a, anchor b where a.label = b.label and a.href = b.href`,
	`select a.href from document d such that "http://s/" L* d, anchor a, anchor b where a.label = b.label and a.href != b.href`,
}

// TestQueryEqualIsDeepEqual: Query.Equal agrees with reflect.DeepEqual on
// every pair of the fixtures' node-queries, each parsed twice so equal
// queries share no pointer.
func TestQueryEqualIsDeepEqual(t *testing.T) {
	var qs []*nodequery.Query
	for _, src := range equalFixtures {
		for range 2 {
			for _, s := range MustParse(src).Stages {
				qs = append(qs, s.Query)
			}
		}
	}
	equal := 0
	for i, a := range qs {
		for j, b := range qs {
			got, want := a.Equal(b), reflect.DeepEqual(a, b)
			if got != want {
				t.Errorf("query %d vs %d: Equal %v, DeepEqual %v\n%s\n%s", i, j, got, want, a, b)
			}
			if got && i != j {
				equal++
			}
		}
	}
	if equal == 0 {
		t.Fatal("no two distinct fixtures compared equal")
	}
	// One field changed at a time, down to a nil slice made empty.
	changes := []func(q *nodequery.Query){
		func(q *nodequery.Query) { q.Vars[0].Rel = "anchor" },
		func(q *nodequery.Query) { q.Vars[0].Cond = &nodequery.Pred{} },
		func(q *nodequery.Query) { q.Where.Kids[0].Left.Col.Col = "url" },
		func(q *nodequery.Query) { q.Where.Kids[1].Op = nodequery.NotContains },
		func(q *nodequery.Query) { q.Where.Kids = q.Where.Kids[:1] },
		func(q *nodequery.Query) { q.Select = q.Select[:0] },
		func(q *nodequery.Query) { q.Outer = q.Outer[1:] },
		func(q *nodequery.Query) { q.Outer = append(q.Outer, q.Outer[0]) },
		func(q *nodequery.Query) { q.Where.Kids[0].Kids = []*nodequery.Pred{} },
	}
	for i, change := range changes {
		a, b := correlated(), correlated()
		change(b)
		if a.Equal(b) || b.Equal(a) || reflect.DeepEqual(a, b) {
			t.Errorf("change %d: Equal %v/%v, DeepEqual %v, want all false", i, a.Equal(b), b.Equal(a), reflect.DeepEqual(a, b))
		}
	}
	var none *nodequery.Query
	if !none.Equal(nil) || none.Equal(qs[0]) || qs[0].Equal(nil) {
		t.Error("a nil query equals only a nil query")
	}
}

// correlated is the second stage's node-query of a correlated fixture:
// two conjuncts, two outer references.
func correlated() *nodequery.Query {
	return MustParse(equalFixtures[8]).Stages[1].Query
}
