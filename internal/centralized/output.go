package centralized

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"webdis/internal/client"
	"webdis/internal/nodequery"
)

// The reference output fold. It applies a query's output contract the
// plainest way there is: every group keeps the raw rows it was given, and
// each aggregate is computed from them once, at the end. The engine folds
// the same rows in two steps — partial state at every site, merged at the
// user-site — so an engine answer that equals this one shows the partial
// states compose.

// contribution is one node's final-stage answer under one environment:
// its rows are aggregated as given, never merged with another's.
type contribution struct {
	cols []string
	rows [][]string
	env  map[string]string
}

// value reads column ref of one row of c: the row's own column first,
// then the environment of earlier stages; "" when neither has it.
func (c contribution) value(row []string, ref nodequery.ColRef) string {
	if i := slices.Index(c.cols, ref.String()); i >= 0 && i < len(row) {
		return row[i]
	}
	return c.env[ref.String()]
}

// member is one row of a group, with the contribution that gave it.
type member struct {
	c   contribution
	row []string
}

// refGroup is one group of a grouped query: its GROUP BY values and rows.
// Values that compare equal ("1", "1.0") are one group, shown by the
// bytewise-least value each column was given.
type refGroup struct {
	keys []string
	rows []member
}

// cell computes one output column of g: a GROUP BY column's value, or an
// aggregate over the group's rows (count 0, sum 0, min and max "" over
// none).
func (g *refGroup) cell(spec *nodequery.OutputSpec, col nodequery.OutputCol) string {
	if col.Agg == nodequery.AggNone {
		for i, k := range spec.GroupBy {
			if k.String() == col.Ref.String() {
				return g.keys[i]
			}
		}
		return ""
	}
	if col.Agg == nodequery.AggCount {
		return strconv.Itoa(len(g.rows))
	}
	sum, best, have := 0.0, "", false
	for _, m := range g.rows {
		v := m.c.value(m.row, col.Ref)
		switch col.Agg {
		case nodequery.AggSum:
			if n, err := strconv.ParseFloat(v, 64); err == nil {
				sum += n
			}
		case nodequery.AggMin:
			if !have || nodequery.CompareVals(v, best) < 0 {
				best, have = v, true
			}
		case nodequery.AggMax:
			if !have || nodequery.CompareVals(v, best) > 0 {
				best, have = v, true
			}
		}
	}
	if col.Agg == nodequery.AggSum {
		return strconv.FormatFloat(sum, 'g', -1, 64)
	}
	return best
}

// groupTable folds the contributions of a grouped query into its final
// table: one row per group shaped by the select list, ordered by the
// order keys, then the group keys, then the row itself, and cut to the
// limit. A scalar aggregate over no rows is one row of zero states.
func groupTable(spec *nodequery.OutputSpec, stage int, contribs map[string]contribution) client.ResultTable {
	byKey := make(map[string]*refGroup)
	var groups []*refGroup
	for _, c := range contribs {
		for _, row := range c.rows {
			keys := make([]string, len(spec.GroupBy))
			for i, ref := range spec.GroupBy {
				keys[i] = c.value(row, ref)
			}
			canon := make([]string, len(keys))
			for i, k := range keys {
				canon[i] = nodequery.CanonVal(k)
			}
			k := fmt.Sprintf("%q", canon)
			g := byKey[k]
			if g == nil {
				g = &refGroup{keys: keys}
				byKey[k] = g
				groups = append(groups, g)
			}
			for i, v := range keys {
				g.keys[i] = min(g.keys[i], v)
			}
			g.rows = append(g.rows, member{c, row})
		}
	}
	if len(groups) == 0 && len(spec.GroupBy) == 0 {
		groups = append(groups, &refGroup{})
	}
	t := client.ResultTable{Stage: stage}
	for _, col := range spec.Cols {
		t.Cols = append(t.Cols, col.String())
	}
	type ranked struct {
		out, sort []string
	}
	rows := make([]ranked, len(groups))
	for i, g := range groups {
		for _, col := range spec.Cols {
			rows[i].out = append(rows[i].out, g.cell(spec, col))
		}
		for _, k := range spec.OrderBy {
			rows[i].sort = append(rows[i].sort, g.cell(spec, k.Col))
		}
		rows[i].sort = append(rows[i].sort, g.keys...)
	}
	sort.Slice(rows, func(a, b int) bool {
		for i := range rows[a].sort {
			c := nodequery.CompareVals(rows[a].sort[i], rows[b].sort[i])
			if c == 0 {
				continue
			}
			if i < len(spec.OrderBy) && spec.OrderBy[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return slices.Compare(rows[a].out, rows[b].out) < 0
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r.out)
	}
	t.Rows = limit(t.Rows, spec.Limit)
	return t
}

// orderLimit orders a non-grouped final stage's distinct rows by the
// order keys that are columns of cols, then the whole row, and cuts them
// to the limit.
func orderLimit(rows [][]string, cols []string, spec *nodequery.OutputSpec) [][]string {
	sort.Slice(rows, func(a, b int) bool {
		for _, k := range spec.OrderBy {
			i := slices.Index(cols, k.Col.String())
			if i < 0 {
				continue
			}
			c := nodequery.CompareVals(rows[a][i], rows[b][i])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return slices.Compare(rows[a], rows[b]) < 0
	})
	return limit(rows, spec.Limit)
}

// limit cuts rows to n when n is positive.
func limit(rows [][]string, n int) [][]string {
	if n > 0 && len(rows) > n {
		return rows[:n]
	}
	return rows
}
