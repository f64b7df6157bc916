package plan

import (
	"encoding/binary"
	"slices"
	"sort"
	"strconv"

	"webdis/internal/nodequery"
)

// Acc is the grouped-aggregation accumulator both ends of a query share:
// a site folds one node's raw rows into partial-state rows with it
// (ApplyFrag), and the user-site client folds every node's partial
// contribution into the final table with the *same* code.
//
// Aggregation ranges over the union of per-node distinct result sets
// (each node's table is already distinct, and the client deduplicates
// whole contributions by (node, stage, env)), so COUNT counts distinct
// projected rows per node — consistent with WEBDIS's set semantics —
// and duplicate deliveries of the same contribution are idempotent.
//
// Partial state per group is one cell per aggregate: COUNT a decimal
// int, SUM a shortest-form float, MIN/MAX the value itself. Partials
// combine by +, +, CompareVals-min and CompareVals-max respectively.
type Acc struct {
	spec *nodequery.OutputSpec
	aggs []nodequery.OutputCol // distinct aggregated cols: select list first, then order-only
	keys map[string]*group
	ord  []string // first-seen group order
	kbuf []byte   // a group key, built here and copied only for a new group
	vals []string // one row's GroupBy values, copied only for a new group
}

// group is one GROUP BY group. Its values are keyed by
// nodequery.AppendCanonVal, so values that compare equal ("1", "1.0")
// fall in one group, as they match under = and the hash join; the group
// shows, per GroupBy column, the bytewise-least value it was given, so
// what it shows does not depend on the order its rows arrived in.
type group struct {
	keys  []string // GroupBy values shown, in GroupBy order
	count []int64
	sum   []float64
	val   []string // MIN/MAX running value
	set   []bool
}

// NewAcc builds an accumulator for one output spec (which must be
// Grouped).
func NewAcc(spec *nodequery.OutputSpec) *Acc {
	a := &Acc{spec: spec, keys: make(map[string]*group)}
	seen := make(map[string]bool)
	for _, c := range spec.Cols {
		if c.Agg != nodequery.AggNone && !seen[c.String()] {
			seen[c.String()] = true
			a.aggs = append(a.aggs, c)
		}
	}
	for _, k := range spec.OrderBy {
		if k.Col.Agg != nodequery.AggNone && !seen[k.Col.String()] {
			seen[k.Col.String()] = true
			a.aggs = append(a.aggs, k.Col)
		}
	}
	return a
}

// group returns the group of the GroupBy values vals, which it does not
// keep.
func (a *Acc) group(vals []string) *group {
	a.kbuf = a.kbuf[:0]
	for _, v := range vals {
		// Each canonical value is followed by its length, so no two
		// lists of values share a key.
		start := len(a.kbuf)
		a.kbuf = nodequery.AppendCanonVal(a.kbuf, v)
		a.kbuf = binary.BigEndian.AppendUint32(a.kbuf, uint32(len(a.kbuf)-start))
	}
	g, ok := a.keys[string(a.kbuf)]
	if ok {
		for i, v := range vals {
			g.keys[i] = min(g.keys[i], v)
		}
		return g
	}
	g = &group{
		keys:  slices.Clone(vals),
		count: make([]int64, len(a.aggs)),
		sum:   make([]float64, len(a.aggs)),
		val:   make([]string, len(a.aggs)),
		set:   make([]bool, len(a.aggs)),
	}
	k := string(a.kbuf)
	a.keys[k] = g
	a.ord = append(a.ord, k)
	return g
}

// AddRaw folds one node's raw result rows in. Group-by and aggregate
// references resolve against the table's columns first, then env (the
// contribution's correlated-stage environment, for group keys exported
// by earlier stages); anything unresolvable reads as "".
func (a *Acc) AddRaw(cols []string, rows [][]string, env map[string]string) {
	idx := colIndex(cols)
	get := func(ref nodequery.ColRef, row []string) string {
		if i, ok := idx[ref.String()]; ok && i < len(row) {
			return row[i]
		}
		return env[ref.String()]
	}
	for _, row := range rows {
		a.vals = a.vals[:0]
		for _, r := range a.spec.GroupBy {
			a.vals = append(a.vals, get(r, row))
		}
		g := a.group(a.vals)
		for i, c := range a.aggs {
			switch c.Agg {
			case nodequery.AggCount:
				g.count[i]++
			case nodequery.AggSum:
				if n, err := strconv.ParseFloat(get(c.Ref, row), 64); err == nil {
					g.sum[i] += n
				}
			case nodequery.AggMin:
				v := get(c.Ref, row)
				if !g.set[i] || nodequery.CompareVals(v, g.val[i]) < 0 {
					g.val[i], g.set[i] = v, true
				}
			case nodequery.AggMax:
				v := get(c.Ref, row)
				if !g.set[i] || nodequery.CompareVals(v, g.val[i]) > 0 {
					g.val[i], g.set[i] = v, true
				}
			}
		}
	}
}

// AddPartial folds partial-state rows produced by another Acc's
// PartialTable (same spec, so the positional layout matches).
func (a *Acc) AddPartial(rows [][]string) {
	nk := len(a.spec.GroupBy)
	for _, row := range rows {
		if len(row) < nk+len(a.aggs) {
			continue // malformed partial; drop rather than misalign
		}
		g := a.group(row[:nk])
		for i, c := range a.aggs {
			cell := row[nk+i]
			switch c.Agg {
			case nodequery.AggCount:
				if n, err := strconv.ParseInt(cell, 10, 64); err == nil {
					g.count[i] += n
				}
			case nodequery.AggSum:
				if n, err := strconv.ParseFloat(cell, 64); err == nil {
					g.sum[i] += n
				}
			case nodequery.AggMin:
				if !g.set[i] || nodequery.CompareVals(cell, g.val[i]) < 0 {
					g.val[i], g.set[i] = cell, true
				}
			case nodequery.AggMax:
				if !g.set[i] || nodequery.CompareVals(cell, g.val[i]) > 0 {
					g.val[i], g.set[i] = cell, true
				}
			}
		}
	}
}

func (a *Acc) aggCell(g *group, i int) string {
	switch a.aggs[i].Agg {
	case nodequery.AggCount:
		return strconv.FormatInt(g.count[i], 10)
	case nodequery.AggSum:
		return strconv.FormatFloat(g.sum[i], 'g', -1, 64)
	default:
		return g.val[i]
	}
}

// PartialTable renders the accumulated state as partial rows: group
// keys then one state cell per aggregate, in first-seen group order.
func (a *Acc) PartialTable() ([]string, [][]string) {
	cols := make([]string, 0, len(a.spec.GroupBy)+len(a.aggs))
	for _, r := range a.spec.GroupBy {
		cols = append(cols, r.String())
	}
	for _, c := range a.aggs {
		cols = append(cols, c.String())
	}
	rows := make([][]string, 0, len(a.ord))
	for _, k := range a.ord {
		g := a.keys[k]
		row := make([]string, 0, len(cols))
		row = append(row, g.keys...)
		for i := range a.aggs {
			row = append(row, a.aggCell(g, i))
		}
		rows = append(rows, row)
	}
	return cols, rows
}

// FinalTable renders the finalized output: one row per group shaped by
// the spec's select list, ordered by the spec's order keys (groups
// themselves as the tiebreak) and truncated to the limit. A scalar
// aggregate (no group-by) with no contributions yields its zero state:
// count 0, sum 0, min/max "".
func (a *Acc) FinalTable() ([]string, [][]string) {
	cols := make([]string, len(a.spec.Cols))
	for i, c := range a.spec.Cols {
		cols[i] = c.String()
	}
	if len(a.keys) == 0 && len(a.spec.GroupBy) == 0 && len(a.aggs) > 0 {
		a.group([]string{}) // scalar zero state
	}
	keyIdx := make(map[string]int, len(a.spec.GroupBy))
	for i, r := range a.spec.GroupBy {
		if _, dup := keyIdx[r.String()]; !dup {
			keyIdx[r.String()] = i
		}
	}
	aggIdx := make(map[string]int, len(a.aggs))
	for i, c := range a.aggs {
		aggIdx[c.String()] = i
	}
	cell := func(g *group, c nodequery.OutputCol) string {
		if c.Agg == nodequery.AggNone {
			if i, ok := keyIdx[c.Ref.String()]; ok {
				return g.keys[i]
			}
			return ""
		}
		return a.aggCell(g, aggIdx[c.String()])
	}
	type wide struct {
		out  []string
		sort []string // order-key values, then group keys for determinism
	}
	rows := make([]wide, 0, len(a.ord))
	for _, k := range a.ord {
		g := a.keys[k]
		w := wide{out: make([]string, len(cols))}
		for i, c := range a.spec.Cols {
			w.out[i] = cell(g, c)
		}
		for _, ok := range a.spec.OrderBy {
			w.sort = append(w.sort, cell(g, ok.Col))
		}
		w.sort = append(w.sort, g.keys...)
		rows = append(rows, w)
	}
	nOrd := len(a.spec.OrderBy)
	sort.SliceStable(rows, func(x, y int) bool {
		a1, b1 := rows[x].sort, rows[y].sort
		for i := 0; i < len(a1) && i < len(b1); i++ {
			c := nodequery.CompareVals(a1[i], b1[i])
			if c == 0 {
				continue
			}
			if i < nOrd && a.spec.OrderBy[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return lessRows(rows[x].out, rows[y].out)
	})
	out := make([][]string, len(rows))
	for i, w := range rows {
		out[i] = w.out
	}
	if a.spec.Limit > 0 && len(out) > a.spec.Limit {
		out = out[:a.spec.Limit]
	}
	return cols, out
}

// ApplyFrag runs a pushed-down plan fragment over one node's raw stage
// table before it ships: grouped specs fold the rows to one
// partial-state row per group; order+limit specs keep only the node's
// top-K rows (safe because any row in the global top-K after
// deduplication is necessarily in its own node's top-K under the same
// total order). It returns the table to ship, whether the rows are
// partial-aggregate state, and the result-cell bytes saved.
func ApplyFrag(cols []string, rows [][]string, env map[string]string, spec *nodequery.OutputSpec) ([]string, [][]string, bool, int) {
	before := cellBytes(cols, rows)
	if spec.Grouped() {
		acc := NewAcc(spec)
		acc.AddRaw(cols, rows, env)
		pcols, prows := acc.PartialTable()
		return pcols, prows, true, before - cellBytes(pcols, prows)
	}
	if spec.Limit > 0 && len(rows) > spec.Limit {
		clipped := SortLimit(append([][]string{}, rows...), cols, spec)
		return cols, clipped, false, before - cellBytes(cols, clipped)
	}
	return cols, rows, false, 0
}

// cellBytes sums the payload bytes of a table, the measure of what a
// fold saves the wire.
func cellBytes(cols []string, rows [][]string) int {
	n := 0
	for _, c := range cols {
		n += len(c)
	}
	for _, r := range rows {
		for _, c := range r {
			n += len(c)
		}
	}
	return n
}
