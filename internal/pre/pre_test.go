package pre

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"L", "L"},
		{"G", "G"},
		{"I", "I"},
		{"N", "N"},
		{"L*", "L*"},
		{"L*4", "L*4"},
		{"G·L", "G·L"},
		{"G.L", "G·L"},
		{"GL", "G·L"},
		{"G·(L*4)", "G·L*4"},
		{"N | G·(L*4)", "N|G·L*4"},
		{"G·(G|L)", "G·(G|L)"},
		{"(G|L)·(G|L)", "(G|L)·(G|L)"},
		{"L*2·G", "L*2·G"},
		{"  L * 2 · G ", "L*2·G"},
		{"((L))", "L"},
		{"L|L", "L"},       // duplicate branch removed
		{"N·G", "G"},       // null link is the unit of concatenation
		{"L*0", "N"},       // zero repetitions is the null link
		{"(L*2)*3", "L*6"}, // nested bounded repetitions multiply
		{"(L*2)*", "L*"},   // unbounded dominates
		{"N*", "N"},        // repeating the null link is the null link
		{"G|N|L", "G|N|L"}, // order preserved
		{"I·L·G", "I·L·G"}, // all three symbols
		{"(G|L)*3", "(G|L)*3"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := e.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// String must re-parse to the same expression.
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", e.String(), err)
		}
		if !Equal(e, e2) {
			t.Errorf("round trip of %q: %q != %q", c.in, e.String(), e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "X", "L|", "(L", "L)", "·L", "|G", "L*99999999", "L**", "()"} {
		if e, err := Parse(in); err == nil {
			// "L**" is actually legal (star of star); exempt legal ones.
			if in == "L**" {
				if e.String() != "L*" {
					t.Errorf("Parse(L**) = %q, want L*", e.String())
				}
				continue
			}
			t.Errorf("Parse(%q) = %q, want error", in, e.String())
		}
	}
}

func TestNullable(t *testing.T) {
	cases := map[string]bool{
		"N":        true,
		"L":        false,
		"L*":       true,
		"L*3":      true,
		"G·L":      false,
		"N|G":      true,
		"G·L*":     false,
		"L*·G*":    true,
		"(N|G)·L*": true,
	}
	for in, want := range cases {
		if got := Nullable(MustParse(in)); got != want {
			t.Errorf("Nullable(%s) = %v, want %v", in, got, want)
		}
	}
}

func TestFirst(t *testing.T) {
	cases := map[string]string{
		"N":         "",
		"L":         "L",
		"G·L":       "G",
		"G|L":       "LG",
		"L*·G":      "LG",
		"N|G·(L*4)": "G",
		"I·L":       "I",
		"(N|L)·G":   "LG",
	}
	for in, want := range cases {
		var got strings.Builder
		for _, l := range First(MustParse(in)) {
			got.WriteString(l.String())
		}
		if got.String() != want {
			t.Errorf("First(%s) = %q, want %q", in, got.String(), want)
		}
	}
}

func TestDerive(t *testing.T) {
	cases := []struct {
		in   string
		link Link
		want string
	}{
		{"L", Local, "N"},
		{"L", Global, "∅"},
		{"G·L", Global, "L"},
		{"G·L", Local, "∅"},
		{"L*", Local, "L*"},
		{"L*4", Local, "L*3"},
		{"L*1", Local, "N"},
		{"G·(G|L)", Global, "G|L"},
		{"G|L", Global, "N"},
		{"L*2·G", Local, "L*1·G"},
		{"L*2·G", Global, "N"},
		{"N|G·(L*4)", Global, "L*4"},
		{"L*·G", Local, "L*·G"},
		{"L*·G", Global, "N"},
		{"(G|L)·(G|L)", Local, "G|L"},
	}
	for _, c := range cases {
		got := Derive(MustParse(c.in), c.link)
		if got.String() != c.want {
			t.Errorf("Derive(%s, %s) = %s, want %s", c.in, c.link, got, c.want)
		}
	}
}

func TestDeriveKeepsStarBounds(t *testing.T) {
	// The paper's Section 3.1.1 depends on derivatives preserving star
	// bounds: L*4 after one L must be L*3, not L·L·L.
	e := MustParse("L*4·G")
	for i := 3; i >= 0; i-- {
		e = Derive(e, Local)
		want := "L*" + string(rune('0'+i)) + "·G"
		if i == 0 {
			want = "G"
		}
		if e.String() != want {
			t.Fatalf("after derivation, got %s, want %s", e, want)
		}
	}
}

func TestMatches(t *testing.T) {
	cases := []struct {
		pre  string
		path string
		want bool
	}{
		{"N|G·(L*4)", "", true},
		{"N|G·(L*4)", "G", true},
		{"N|G·(L*4)", "G·L·L·L·L", true},
		{"N|G·(L*4)", "G·L·L·L·L·L", false},
		{"N|G·(L*4)", "L", false},
		{"G·(G|L)", "G·G", true},
		{"G·(G|L)", "G·L", true},
		{"G·(G|L)", "G", false},
		{"L*", "", true},
		{"L*", "L·L·L·L·L·L·L", true},
		{"L*", "L·G", false},
		{"L*2·G", "G", true},
		{"L*2·G", "L·G", true},
		{"L*2·G", "L·L·G", true},
		{"L*2·G", "L·L·L·G", false},
	}
	for _, c := range cases {
		path, err := ParsePath(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := Matches(MustParse(c.pre), path); got != c.want {
			t.Errorf("Matches(%s, %s) = %v, want %v", c.pre, c.path, got, c.want)
		}
	}
}

func TestMaxMinLen(t *testing.T) {
	cases := []struct {
		in       string
		min, max int
	}{
		{"N", 0, 0},
		{"L", 1, 1},
		{"L*4", 0, 4},
		{"L*", 0, Unbounded},
		{"G·(L*4)", 1, 5},
		{"N|G·L", 0, 2},
		{"(G|L·L)·I", 2, 3},
		{"(L*2)·(G*3)", 0, 5},
	}
	for _, c := range cases {
		e := MustParse(c.in)
		if got := MinLen(e); got != c.min {
			t.Errorf("MinLen(%s) = %d, want %d", c.in, got, c.min)
		}
		if got := MaxLen(e); got != c.max {
			t.Errorf("MaxLen(%s) = %d, want %d", c.in, got, c.max)
		}
	}
}

func TestEnumerate(t *testing.T) {
	got := Enumerate(MustParse("N|G·(L*2)"), 5)
	want := []string{"N", "G", "G·L", "G·L·L"}
	if len(got) != len(want) {
		t.Fatalf("Enumerate returned %d paths, want %d", len(got), len(want))
	}
	for i, p := range got {
		if FormatPath(p) != want[i] {
			t.Errorf("path %d = %s, want %s", i, FormatPath(p), want[i])
		}
	}
}

// TestCompareStarBounds: the star-bound relations of Section 3.1.1's
// worked examples, decided by language containment in both directions.
func TestCompareStarBounds(t *testing.T) {
	cases := []struct {
		old, new             string
		oldCovers, newCovers bool
	}{
		{"L*2·G", "L*1·G", true, false},
		{"L*2·G", "L*4·G", false, true},
		{"L*2·G", "L*2·G", true, true},
		{"L*·G", "L*7·G", true, false},
		{"L*3·G", "L*·G", false, true},
		{"L*2·G", "G*2·G", false, false},
		{"L*2·G", "L*2·L", false, false},
		{"L*2", "L*5", false, true},
		{"L*5", "L*2", true, false},
		{"G·L", "L·G", false, false},
		{"L*2·(G|L)", "L*3·(G|L)", false, true},
	}
	for _, c := range cases {
		old, new := MustParse(c.old), MustParse(c.new)
		if got := Covers(old, new); got != c.oldCovers {
			t.Errorf("Covers(%s, %s) = %v, want %v", c.old, c.new, got, c.oldCovers)
		}
		if got := Covers(new, old); got != c.newCovers {
			t.Errorf("Covers(%s, %s) = %v, want %v", c.new, c.old, got, c.newCovers)
		}
	}
}

// rewriteAfter is the query-multiple-rewrite of Section 3.1.1 read off
// derivatives, as the Node-query Log Table applies it with logged
// already in the table: t keeps its evaluation only if logged is not
// nullable, and its step over l only if logged's derivative over l does
// not cover t's. It returns what t still explores, and whether logged
// pruned anything.
func rewriteAfter(logged, t Expr) (Expr, bool) {
	var rest []Expr
	pruned := false
	if Nullable(t) {
		if Nullable(logged) {
			pruned = true
		} else {
			rest = append(rest, Eps())
		}
	}
	for _, l := range First(t) {
		d := Derive(t, l)
		if IsNone(d) {
			continue
		}
		if Covers(Derive(logged, l), d) {
			pruned = true
			continue
		}
		rest = append(rest, Cat(Sym(l), d))
	}
	if !pruned {
		return t, false
	}
	return Alt(rest...), true
}

// TestRewriteSuperset: an arrival A*m·B after a logged A*k·B (k < m)
// explores only A·A*(m-1)·B, the paper's rewrite. Where the logged state
// covers no step of the arrival nothing is rewritten.
func TestRewriteSuperset(t *testing.T) {
	cases := []struct {
		logged, in string
		want       string
		applied    bool
	}{
		{"L*2·G", "L*4·G", "L·L*3·G", true},
		{"G", "L*1·G", "L·G", true},
		{"G", "L*·G", "L·L*·G", true},
		{"L*2", "L*3", "L·L*2", true},
		{"L*2·G", "G·L", "G·L", false},
		{"L*2·G", "(G|L)*2·G", "(G|L)*2·G", false}, // the logged star is not the arrival's
	}
	for _, c := range cases {
		got, applied := rewriteAfter(MustParse(c.logged), MustParse(c.in))
		if applied != c.applied || got.String() != c.want {
			t.Errorf("%s after %s explores (%s, %v), want (%s, %v)",
				c.in, c.logged, got, applied, c.want, c.applied)
		}
		if !Covers(MustParse(c.in), got) {
			t.Errorf("%s after %s explores %s, outside its language", c.in, c.logged, got)
		}
	}
}

// TestRewriteSupersetForcesPureRouter: after the rewrite the node must
// not evaluate the node-query again: the rest of a nullable arrival is
// not nullable once a nullable state is logged.
func TestRewriteSupersetForcesPureRouter(t *testing.T) {
	for _, c := range [][2]string{{"L*2", "L*4"}, {"L*2·G*2", "L*4·G*2"}, {"L*2", "L*"}} {
		got, applied := rewriteAfter(MustParse(c[0]), MustParse(c[1]))
		if !applied {
			t.Fatalf("%s after %s was not rewritten", c[1], c[0])
		}
		if Nullable(got) {
			t.Errorf("%s after %s explores %s, still nullable", c[1], c[0], got)
		}
	}
}

func TestDFAContains(t *testing.T) {
	cases := []struct {
		super, sub string
		want       bool
	}{
		{"L*4·G", "L*2·G", true},
		{"L*2·G", "L*4·G", false},
		{"L*", "L*100", true},
		{"G|L", "L", true},
		{"L", "G|L", false},
		{"(G|L)·(G|L)", "G·L", true},
		{"G·L", "(G|L)·(G|L)", false},
		{"L·L*1·G", "L*2·G", false}, // rewrite removes the short paths
		{"L*2·G", "L·L*1·G", true},
		{"N", "N", true},
		{"L*", "N", true},
	}
	for _, c := range cases {
		got, err := Contains(MustParse(c.super), MustParse(c.sub))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.super, c.sub, got, c.want)
		}
	}
}

// TestEquivalent: states that differ in text but not in language cover
// each other, which no syntactic rule sees.
func TestEquivalent(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"L·L*1·G | G | L·G", "L*2·G", true},
		{"(G|L)", "(L|G)", true},
		{"L*", "N|L·L*", true},
		{"((G·(L|G))*3·(L*3|G))*", "(L|G)*", true},
		{"L*2", "L*3", false},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := Covers(a, b) && Covers(b, a); got != c.want {
			t.Errorf("%s and %s cover each other: %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// randomExpr builds a random PRE of bounded depth for property tests.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return Sym(Interior)
		case 1:
			return Sym(Local)
		case 2:
			return Sym(Global)
		default:
			return Eps()
		}
	}
	switch r.Intn(4) {
	case 0:
		return Cat(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return Alt(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 2:
		return Rep(randomExpr(r, depth-1), 1+r.Intn(4))
	default:
		return randomExpr(r, depth-1)
	}
}

func randomPath(r *rand.Rand, maxLen int) []Link {
	n := r.Intn(maxLen + 1)
	p := make([]Link, n)
	for i := range p {
		p[i] = Links[r.Intn(len(Links))]
	}
	return p
}

// exprPath is a quick.Generator seed: a random expression plus a random path.
type exprPath struct {
	Seed int64
}

func TestQuickDeriveAgreesWithDFA(t *testing.T) {
	// Property: derivative-based matching and compiled-DFA matching agree
	// on every (expression, path) pair.
	f := func(ep exprPath) bool {
		r := rand.New(rand.NewSource(ep.Seed))
		e := randomExpr(r, 3)
		d, err := CompileDFA(e)
		if err != nil {
			return true // skip pathological blowups
		}
		for i := 0; i < 20; i++ {
			p := randomPath(r, 6)
			if Matches(e, p) != d.Accepts(p) {
				t.Logf("mismatch: e=%s path=%s", e, FormatPath(p))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeriveStepProperty(t *testing.T) {
	// Property: Matches(e, l:rest) == Matches(Derive(e,l), rest).
	f := func(ep exprPath) bool {
		r := rand.New(rand.NewSource(ep.Seed))
		e := randomExpr(r, 3)
		for i := 0; i < 20; i++ {
			p := randomPath(r, 6)
			if len(p) == 0 {
				continue
			}
			if Matches(e, p) != Matches(Derive(e, p[0]), p[1:]) {
				t.Logf("mismatch: e=%s path=%s", e, FormatPath(p))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(ep exprPath) bool {
		r := rand.New(rand.NewSource(ep.Seed))
		e := randomExpr(r, 4)
		e2, err := Parse(e.String())
		if err != nil {
			t.Logf("Parse(%q): %v", e.String(), err)
			return false
		}
		return Equal(e, e2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickCoversMatchesPaths holds Covers to brute force: Matches over
// every path of up to six links. Where both languages stop short of six
// links the enumeration is exhaustive and decides containment both ways;
// otherwise a claimed containment must hold on every enumerated path.
func TestQuickCoversMatchesPaths(t *testing.T) {
	var paths [][]Link
	for n, frontier := 0, [][]Link{nil}; n <= 6; n++ {
		paths = append(paths, frontier...)
		var next [][]Link
		for _, p := range frontier {
			for _, l := range Links {
				next = append(next, append(append([]Link(nil), p...), l))
			}
		}
		frontier = next
	}
	contained := func(super, sub Expr) bool {
		for _, p := range paths {
			if Matches(sub, p) && !Matches(super, p) {
				return false
			}
		}
		return true
	}
	f := func(ep exprPath) bool {
		r := rand.New(rand.NewSource(ep.Seed))
		a, b := randomExpr(r, 3), randomExpr(r, 3)
		for _, c := range [][2]Expr{{a, b}, {b, a}, {Alt(a, b), b}, {a, Derive(a, Links[r.Intn(3)])}} {
			super, sub := c[0], c[1]
			got, err := Contains(super, sub)
			if err != nil {
				continue
			}
			exact := MaxLen(super) != Unbounded && MaxLen(super) <= 6 && MaxLen(sub) != Unbounded && MaxLen(sub) <= 6
			if want := contained(super, sub); got && !want || exact && got != want {
				t.Logf("Covers(%s, %s) = %v, paths say %v", super, sub, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParsePathAndFormat(t *testing.T) {
	p, err := ParsePath("G·L·L")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, []Link{Global, Local, Local}) {
		t.Fatalf("ParsePath = %v", p)
	}
	if FormatPath(p) != "G·L·L" {
		t.Fatalf("FormatPath = %s", FormatPath(p))
	}
	if FormatPath(nil) != "N" {
		t.Fatalf("FormatPath(nil) = %s", FormatPath(nil))
	}
	if _, err := ParsePath("GXL"); err == nil {
		t.Fatal("ParsePath(GXL) should fail")
	}
}

func TestLinkValid(t *testing.T) {
	for _, l := range Links {
		if !l.Valid() {
			t.Errorf("Link %s should be valid", l)
		}
	}
	if Link('X').Valid() {
		t.Error("Link X should be invalid")
	}
}
