package nodequery

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// refNum is the definition of a number: what strconv parses, but NaN.
func refNum(v string) (float64, bool) {
	n, err := strconv.ParseFloat(v, 64)
	return n, err == nil && !math.IsNaN(n)
}

// compareRef is CompareVals by its definition.
func compareRef(a, b string) int {
	an, aok := refNum(a)
	bn, bok := refNum(b)
	if aok && bok {
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		}
		return 0
	}
	return strings.Compare(a, b)
}

// canonRef is CanonVal by its definition.
func canonRef(v string) string {
	if n, ok := refNum(v); ok {
		if n == 0 {
			n = 0 // one key for -0 and 0
		}
		return "n\x01" + strconv.FormatFloat(n, 'g', -1, 64)
	}
	return "s\x01" + v
}

var compareSeeds = []string{
	"", "0", "-0", "+1", "1.0", "1", ".5", "5.", "1e3", "1E-3", "0x1p-2", "0x_1p0", "1_000",
	"inf", "+Inf", "-INFINITY", "infinity", "NaN", "nan", "nAn", "in", "na", "i", "n",
	"hr", "Convener", "q1-answer", " 1", "1 ", "e5", "x", "1e400", "-1e400", "\xff", "٣",
}

// FuzzCompareVals holds CompareVals and CanonVal to the strconv
// definition: the first-byte check may only turn down what ParseFloat
// would reject, and two values share a CanonVal key exactly when
// CompareVals finds them equal (a hash join then matches what = does).
func FuzzCompareVals(f *testing.F) {
	for _, a := range compareSeeds {
		for _, b := range compareSeeds[:6] {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := CompareVals(a, b), compareRef(a, b); got != want {
			t.Errorf("CompareVals(%q, %q) = %d, want %d", a, b, got, want)
		}
		for _, v := range []string{a, b} {
			if _, err := strconv.ParseFloat(v, 64); err == nil && !mayBeFloat(v) {
				t.Errorf("mayBeFloat(%q) = false, but ParseFloat accepts it", v)
			}
		}
		if got, want := CanonVal(a), canonRef(a); got != want {
			t.Errorf("CanonVal(%q) = %q, want %q", a, got, want)
		}
		if same, eq := CanonVal(a) == CanonVal(b), CompareVals(a, b) == 0; same != eq {
			t.Errorf("CanonVal(%q) == CanonVal(%q) is %v, CompareVals is %d", a, b, same, CompareVals(a, b))
		}
	})
}

// TestCompareValsWordsAllocNothing: a comparison with a word operand
// costs no error value.
func TestCompareValsWordsAllocNothing(t *testing.T) {
	for _, pair := range [][2]string{{"hr", "hr"}, {"Convener", "convener"}, {"12", "b"}, {"", "x"}} {
		if a := testing.AllocsPerRun(20, func() { CompareVals(pair[0], pair[1]) }); a != 0 {
			t.Errorf("CompareVals(%q, %q): %.0f allocations, want 0", pair[0], pair[1], a)
		}
	}
}
