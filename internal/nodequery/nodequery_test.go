package nodequery

import (
	"strings"
	"testing"
)

func TestValidateErrors(t *testing.T) {
	cases := []*Query{
		{Vars: []VarDecl{{Name: "d", Rel: "nosuch"}}},
		{Vars: []VarDecl{{Name: "d", Rel: "document"}, {Name: "d", Rel: "anchor"}}},
		{Vars: []VarDecl{{Name: "", Rel: "document"}}},
		{Vars: []VarDecl{{Name: "d", Rel: "document"}},
			Select: []ColRef{{"x", "url"}}},
		{Vars: []VarDecl{{Name: "d", Rel: "document"}},
			Select: []ColRef{{"d", "nosuchcol"}}},
		{Vars: []VarDecl{{Name: "d", Rel: "document"}},
			Where:  Compare(ColOperand("d", "bogus"), Eq, LitOperand("x")),
			Select: []ColRef{{"d", "url"}}},
	}
	for i, q := range cases {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error (%s)", i, q)
		}
	}
}

func TestQueryString(t *testing.T) {
	q := &Query{
		Vars: []VarDecl{
			{Name: "d", Rel: "document"},
			{Name: "r", Rel: "relinfon",
				Cond: Compare(ColOperand("r", "delimiter"), Eq, LitOperand("hr"))},
		},
		Where:  Compare(ColOperand("r", "text"), Contains, LitOperand("convener")),
		Select: []ColRef{{"d", "url"}, {"r", "text"}},
	}
	s := q.String()
	for _, want := range []string{"select d.url, r.text", "document d", `relinfon r such that r.delimiter = "hr"`, `where r.text contains "convener"`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestSortRows(t *testing.T) {
	rows := [][]string{{"b"}, {"a", "z"}, {"a"}, {"a", "a"}}
	SortRows(rows)
	want := [][]string{{"a"}, {"a", "a"}, {"a", "z"}, {"b"}}
	for i := range want {
		if strings.Join(rows[i], ",") != strings.Join(want[i], ",") {
			t.Fatalf("sorted = %v", rows)
		}
	}
}

func TestConj(t *testing.T) {
	if p := Conj(nil, nil); p.Kind != True {
		t.Errorf("Conj(nil,nil) = %v", p)
	}
	c := Compare(LitOperand("a"), Eq, LitOperand("a"))
	if p := Conj(nil, c); p != c {
		t.Errorf("Conj(nil,c) should be c itself")
	}
	p := Conj(c, Conj(c, c))
	if p.Kind != And || len(p.Kids) != 3 {
		t.Errorf("Conj should flatten: %v", p)
	}
}
