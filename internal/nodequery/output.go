package nodequery

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// AggKind names an aggregate function of a DISQL select list.
type AggKind int

// Aggregate kinds. AggNone marks a plain (non-aggregated) column.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggMin
	AggMax
)

var aggNames = map[AggKind]string{
	AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max",
}

func (a AggKind) String() string {
	if s, ok := aggNames[a]; ok {
		return s
	}
	return "none"
}

// OutputCol is one item of an aggregated select list (or an order-by
// key): either a plain column reference — which must appear in the
// group-by list — or an aggregate over a column of the final stage.
// Star marks count(*).
type OutputCol struct {
	Agg  AggKind
	Star bool   // count(*)
	Ref  ColRef // unset when Star
}

func (c OutputCol) String() string {
	if c.Agg == AggNone {
		return c.Ref.String()
	}
	if c.Star {
		return c.Agg.String() + "(*)"
	}
	return c.Agg.String() + "(" + c.Ref.String() + ")"
}

// OrderKey is one order-by item: an output column and a direction.
type OrderKey struct {
	Col  OutputCol
	Desc bool
}

func (k OrderKey) String() string {
	if k.Desc {
		return k.Col.String() + " desc"
	}
	return k.Col.String()
}

// OutputSpec is the user-site output contract of a web-query beyond the
// plain select list: grouping, aggregation, ordering and a row limit.
// A nil OutputSpec (or one with no aggregates and no group-by) leaves
// the classic per-stage result tables untouched except for final
// ordering and limiting.
//
// Like the rest of this package the spec is plain data, so it travels
// inside clone messages as the plan fragment every site folds its
// final-stage rows with.
type OutputSpec struct {
	Cols    []OutputCol // aggregated select list; nil for plain queries
	GroupBy []ColRef
	OrderBy []OrderKey
	Limit   int // 0 = unlimited
}

// Grouped reports whether the spec folds rows into groups (any
// aggregate or an explicit group-by), which changes the shape of the
// final result table.
func (s *OutputSpec) Grouped() bool {
	if s == nil {
		return false
	}
	if len(s.GroupBy) > 0 {
		return true
	}
	return s.HasAggs()
}

// HasAggs reports whether any select or order-by item aggregates.
func (s *OutputSpec) HasAggs() bool {
	if s == nil {
		return false
	}
	for _, c := range s.Cols {
		if c.Agg != AggNone {
			return true
		}
	}
	for _, k := range s.OrderBy {
		if k.Col.Agg != AggNone {
			return true
		}
	}
	return false
}

// Suffix renders the group-by / order-by / limit tail in DISQL syntax
// (empty when there is none); Format appends it to the canonical text.
func (s *OutputSpec) Suffix() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	if len(s.GroupBy) > 0 {
		b.WriteString("\ngroup by ")
		for i, c := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString("\norder by ")
		for i, k := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.String())
		}
	}
	if s.Limit > 0 {
		fmt.Fprintf(&b, "\nlimit %d", s.Limit)
	}
	return b.String()
}

// CompareVals orders two virtual-relation values exactly as the
// comparison predicates do: numerically when both sides parse as
// floats other than NaN, by byte order otherwise (a "NaN" in any case
// is a word, equal only to itself). Every ordering decision of package
// plan — hash-join keys, order-by, MIN/MAX — goes through this so
// that the operator pipeline is indistinguishable from the paper's
// nested-loop evaluator (plan's test oracle).
func CompareVals(a, b string) int {
	if an, ok := parseNum(a); ok {
		if bn, ok := parseNum(b); ok {
			switch {
			case an < bn:
				return -1
			case an > bn:
				return 1
			}
			return 0
		}
	}
	return strings.Compare(a, b)
}

// CanonVal maps a value to a key that is equal for two values exactly
// when CompareVals reports them equal: numeric values canonicalize to
// their shortest float form ("1.0" and "1" collide, as do "-0" and "0"),
// everything else keeps byte identity. Hash joins and group-by hashing
// use it, group-by through AppendCanonVal.
func CanonVal(v string) string {
	var buf [64]byte
	return string(AppendCanonVal(buf[:0], v))
}

// AppendCanonVal appends CanonVal(v) to dst.
func AppendCanonVal(dst []byte, v string) []byte {
	if n, ok := parseNum(v); ok {
		return strconv.AppendFloat(append(dst, "n\x01"...), n+0, 'g', -1, 64) // n+0 is +0 for -0
	}
	return append(append(dst, "s\x01"...), v...)
}

// parseNum is strconv.ParseFloat(s, 64) as a yes/no, with NaN a word:
// it is unordered against every number, so as a number it would compare
// equal to all of them. A value ParseFloat must reject by its first
// byte is turned down without asking it, so a word costs no
// *strconv.NumError.
func parseNum(s string) (float64, bool) {
	if !mayBeFloat(s) {
		return 0, false
	}
	n, err := strconv.ParseFloat(s, 64)
	return n, err == nil && !math.IsNaN(n)
}

// mayBeFloat reports whether strconv.ParseFloat could accept s: only a
// digit, a sign, a '.' or the first letter of "inf", "infinity" or "nan"
// (in any case) can begin a float it parses.
func mayBeFloat(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.', c|0x20 == 'i', c|0x20 == 'n':
		return true
	}
	return false
}
