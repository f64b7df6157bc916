// Package plan implements the volcano/iterator operator pipeline that
// evaluates node-queries at a site — scan over the virtual relations,
// filter, project, hash-join, hash-aggregate, order-by, limit — and the
// cost-based distributed planner built on top of it: partial-aggregate
// and top-K pushdown into cloned web-queries (wire.PlanFrag), and the
// per-edge ship-query-vs-ship-data decision driven by site statistics
// piggybacked on result frames (wire.SiteStat).
//
// The pipeline replaces the paper's nested-loop matcher as the
// site-local evaluator (nodeproc.Step calls Eval). It is observationally
// identical to that matcher, which this package's tests keep as their
// oracle — every value comparison goes through
// nodequery.CompareVals/CanonVal so numeric-vs-string coercions agree.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
)

// Op is one node of a volcano operator tree. Open binds the tree to one
// node's virtual relations, Next pulls one row at a time (ok=false at
// end of stream), Close releases state. Cols names the output columns
// in "var.col" form; Kids and Describe drive Explain; Emitted counts
// rows produced, feeding the per-operator statistics snapshot.
type Op interface {
	Open(db *relmodel.DB) error
	Next() (row []string, ok bool, err error)
	Close()
	Cols() []string
	Kids() []Op
	Describe() string
	Emitted() int64
}

// emitted is the row counter every operator embeds.
type emitted struct{ n int64 }

func (e *emitted) Emitted() int64 { return e.n }

// Scan streams the tuples of one virtual relation, binding them to a
// declared variable name.
type Scan struct {
	Rel string // document, anchor or relinfon
	Var string
	emitted
	tuples []relmodel.Tuple
	pos    int
}

func (s *Scan) Cols() []string {
	schema := relmodel.Schemas[strings.ToLower(s.Rel)]
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = s.Var + "." + c
	}
	return cols
}

func (s *Scan) Open(db *relmodel.DB) error {
	rel, err := db.Relation(s.Rel)
	if err != nil {
		return err
	}
	s.tuples, s.pos, s.n = rel.Tuples, 0, 0
	return nil
}

func (s *Scan) Next() ([]string, bool, error) {
	if s.pos >= len(s.tuples) {
		return nil, false, nil
	}
	row := []string(s.tuples[s.pos])
	s.pos++
	s.n++
	return row, true, nil
}

func (s *Scan) Close()           { s.tuples = nil }
func (s *Scan) Kids() []Op       { return nil }
func (s *Scan) Describe() string { return fmt.Sprintf("scan %s as %s", s.Rel, s.Var) }

// Filter passes rows satisfying a predicate. Column references resolve
// against the child's columns first, then the outer environment (the
// correlated-stage values carried by the clone).
type Filter struct {
	Child Op
	Pred  *nodequery.Pred
	Env   map[string]string
	emitted
	idx map[string]int
	// residual is Pred minus the conjuncts the DB's text oracle decided
	// at Open (see textfold.go); never short-circuits the stream when a
	// decided conjunct is false — the child is then not even opened, so
	// the relations under it are never materialised.
	residual *nodequery.Pred
	never    bool
}

func (f *Filter) Cols() []string { return f.Child.Cols() }

func (f *Filter) Open(db *relmodel.DB) error {
	f.idx, f.n = colIndex(f.Child.Cols()), 0
	f.residual, f.never = f.Pred, false
	if db.Text != nil {
		f.residual, f.never = foldTextIndex(f.Pred, docScanVars(f.Child), db.Text)
	}
	if f.never {
		return nil
	}
	return f.Child.Open(db)
}

func (f *Filter) Next() ([]string, bool, error) {
	if f.never {
		return nil, false, nil
	}
	for {
		row, ok, err := f.Child.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		pass, err := evalPredRow(f.residual, f.idx, row, f.Env)
		if err != nil {
			return nil, false, err
		}
		if pass {
			f.n++
			return row, true, nil
		}
	}
}

func (f *Filter) Close()           { f.Child.Close() }
func (f *Filter) Kids() []Op       { return []Op{f.Child} }
func (f *Filter) Describe() string { return "filter " + f.Pred.String() }

// HashJoin equi-joins two inputs: the right side is built into a hash
// table at Open, the left side probes it row by row. Keys hash through
// nodequery.CanonVal so numeric equality ("1" = "1.0") matches the
// comparison predicates exactly.
type HashJoin struct {
	Left, Right         Op
	LeftKeys, RightKeys []nodequery.ColRef // parallel, len ≥ 1
	emitted
	table   map[string][][]string
	cur     []string
	matches [][]string
	mi      int
	lidx    []int
}

func (j *HashJoin) Cols() []string {
	return append(append([]string{}, j.Left.Cols()...), j.Right.Cols()...)
}

func (j *HashJoin) Open(db *relmodel.DB) error {
	j.n, j.cur, j.matches, j.mi = 0, nil, nil, 0
	if err := j.Left.Open(db); err != nil {
		return err
	}
	if err := j.Right.Open(db); err != nil {
		return err
	}
	var err error
	if j.lidx, err = keyIndexes(j.LeftKeys, j.Left.Cols()); err != nil {
		return err
	}
	ridx, err := keyIndexes(j.RightKeys, j.Right.Cols())
	if err != nil {
		return err
	}
	j.table = make(map[string][][]string)
	for {
		row, ok, err := j.Right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k := hashKey(row, ridx)
		j.table[k] = append(j.table[k], row)
	}
	return nil
}

func (j *HashJoin) Next() ([]string, bool, error) {
	for {
		if j.mi < len(j.matches) {
			right := j.matches[j.mi]
			j.mi++
			out := make([]string, 0, len(j.cur)+len(right))
			out = append(append(out, j.cur...), right...)
			j.n++
			return out, true, nil
		}
		row, ok, err := j.Left.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		j.cur = row
		j.matches = j.table[hashKey(row, j.lidx)]
		j.mi = 0
	}
}

func (j *HashJoin) Close()     { j.Left.Close(); j.Right.Close(); j.table = nil }
func (j *HashJoin) Kids() []Op { return []Op{j.Left, j.Right} }

func (j *HashJoin) Describe() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = j.LeftKeys[i].String() + " = " + j.RightKeys[i].String()
	}
	return "hash-join on " + strings.Join(parts, ", ")
}

// NestLoop is the fallback cross product for variable pairs with no
// equi-join conjunct; residual predicates sit in a Filter above it.
type NestLoop struct {
	Left, Right Op
	emitted
	cur   []string
	right [][]string
	ri    int
}

func (j *NestLoop) Cols() []string {
	return append(append([]string{}, j.Left.Cols()...), j.Right.Cols()...)
}

func (j *NestLoop) Open(db *relmodel.DB) error {
	j.n, j.cur, j.right, j.ri = 0, nil, nil, 0
	if err := j.Left.Open(db); err != nil {
		return err
	}
	if err := j.Right.Open(db); err != nil {
		return err
	}
	for {
		row, ok, err := j.Right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.right = append(j.right, row)
	}
	j.ri = len(j.right) // force a left pull first
	return nil
}

func (j *NestLoop) Next() ([]string, bool, error) {
	for {
		if j.cur != nil && j.ri < len(j.right) {
			r := j.right[j.ri]
			j.ri++
			out := make([]string, 0, len(j.cur)+len(r))
			out = append(append(out, j.cur...), r...)
			j.n++
			return out, true, nil
		}
		row, ok, err := j.Left.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		j.cur, j.ri = row, 0
	}
}

func (j *NestLoop) Close()           { j.Left.Close(); j.Right.Close(); j.right = nil }
func (j *NestLoop) Kids() []Op       { return []Op{j.Left, j.Right} }
func (j *NestLoop) Describe() string { return "nest-loop product" }

// Project maps rows to the select list. References missing from the
// child resolve against the outer environment (constant per node).
type Project struct {
	Child Op
	Refs  []nodequery.ColRef
	Env   map[string]string
	emitted
	idx []int // position in child row, or -1 = env constant
	env []string
}

func (p *Project) Cols() []string {
	cols := make([]string, len(p.Refs))
	for i, r := range p.Refs {
		cols[i] = r.String()
	}
	return cols
}

func (p *Project) Open(db *relmodel.DB) error {
	if err := p.Child.Open(db); err != nil {
		return err
	}
	p.n = 0
	idx := colIndex(p.Child.Cols())
	p.idx = make([]int, len(p.Refs))
	p.env = make([]string, len(p.Refs))
	for i, r := range p.Refs {
		if j, ok := idx[r.String()]; ok {
			p.idx[i] = j
			continue
		}
		v, ok := p.Env[r.String()]
		if !ok {
			return fmt.Errorf("plan: unbound column %s", r)
		}
		p.idx[i], p.env[i] = -1, v
	}
	return nil
}

func (p *Project) Next() ([]string, bool, error) {
	row, ok, err := p.Child.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	out := make([]string, len(p.Refs))
	for i, j := range p.idx {
		if j < 0 {
			out[i] = p.env[i]
		} else {
			out[i] = row[j]
		}
	}
	p.n++
	return out, true, nil
}

func (p *Project) Close()           { p.Child.Close() }
func (p *Project) Kids() []Op       { return []Op{p.Child} }
func (p *Project) Describe() string { return "project [" + strings.Join(p.Cols(), ", ") + "]" }

// Distinct passes each row once (byte equality, first occurrence),
// matching nodequery's final distinct projection.
type Distinct struct {
	Child Op
	emitted
	seen map[string]bool
}

func (d *Distinct) Cols() []string { return d.Child.Cols() }

func (d *Distinct) Open(db *relmodel.DB) error {
	d.seen, d.n = make(map[string]bool), 0
	return d.Child.Open(db)
}

func (d *Distinct) Next() ([]string, bool, error) {
	for {
		row, ok, err := d.Child.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		k := strings.Join(row, "\x00")
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		d.n++
		return row, true, nil
	}
}

func (d *Distinct) Close()           { d.Child.Close(); d.seen = nil }
func (d *Distinct) Kids() []Op       { return []Op{d.Child} }
func (d *Distinct) Describe() string { return "distinct" }

// HashAgg folds its input into groups per an OutputSpec at Open and
// streams the aggregated rows: partial-state rows when Partial (the
// pushdown form a remote site ships), finalized output rows otherwise.
type HashAgg struct {
	Child   Op
	Spec    *nodequery.OutputSpec
	Env     map[string]string
	Partial bool
	emitted
	cols []string
	rows [][]string
	pos  int
}

func (h *HashAgg) Cols() []string {
	if h.cols != nil {
		return h.cols
	}
	acc := NewAcc(h.Spec)
	if h.Partial {
		c, _ := acc.PartialTable()
		return c
	}
	c, _ := acc.FinalTable()
	return c
}

func (h *HashAgg) Open(db *relmodel.DB) error {
	if err := h.Child.Open(db); err != nil {
		return err
	}
	h.n, h.pos = 0, 0
	acc := NewAcc(h.Spec)
	cols := h.Child.Cols()
	var rows [][]string
	for {
		row, ok, err := h.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	acc.AddRaw(cols, rows, h.Env)
	if h.Partial {
		h.cols, h.rows = acc.PartialTable()
	} else {
		h.cols, h.rows = acc.FinalTable()
	}
	return nil
}

func (h *HashAgg) Next() ([]string, bool, error) {
	if h.pos >= len(h.rows) {
		return nil, false, nil
	}
	row := h.rows[h.pos]
	h.pos++
	h.n++
	return row, true, nil
}

func (h *HashAgg) Close()     { h.Child.Close(); h.rows = nil }
func (h *HashAgg) Kids() []Op { return []Op{h.Child} }

func (h *HashAgg) Describe() string {
	kind := "hash-agg"
	if h.Partial {
		kind = "partial hash-agg"
	}
	var keys []string
	for _, k := range h.Spec.GroupBy {
		keys = append(keys, k.String())
	}
	return fmt.Sprintf("%s group by [%s] → [%s]", kind, strings.Join(keys, ", "), strings.Join(h.Cols(), ", "))
}

// OrderBy materializes its input at Open and streams it sorted by the
// spec's order keys (nodequery.CompareVals per key, whole-row tiebreak).
type OrderBy struct {
	Child Op
	Keys  []nodequery.OrderKey
	emitted
	rows [][]string
	pos  int
}

func (o *OrderBy) Cols() []string { return o.Child.Cols() }

func (o *OrderBy) Open(db *relmodel.DB) error {
	if err := o.Child.Open(db); err != nil {
		return err
	}
	o.n, o.pos, o.rows = 0, 0, nil
	for {
		row, ok, err := o.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		o.rows = append(o.rows, row)
	}
	idx, desc, err := orderIndexes(o.Keys, o.Child.Cols())
	if err != nil {
		return err
	}
	sortRowsBy(o.rows, idx, desc)
	return nil
}

func (o *OrderBy) Next() ([]string, bool, error) {
	if o.pos >= len(o.rows) {
		return nil, false, nil
	}
	row := o.rows[o.pos]
	o.pos++
	o.n++
	return row, true, nil
}

func (o *OrderBy) Close()     { o.Child.Close(); o.rows = nil }
func (o *OrderBy) Kids() []Op { return []Op{o.Child} }

func (o *OrderBy) Describe() string {
	parts := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		parts[i] = k.String()
	}
	return "order by " + strings.Join(parts, ", ")
}

// Limit stops the stream after N rows.
type Limit struct {
	Child Op
	N     int
	emitted
}

func (l *Limit) Cols() []string { return l.Child.Cols() }

func (l *Limit) Open(db *relmodel.DB) error {
	l.n = 0
	return l.Child.Open(db)
}

func (l *Limit) Next() ([]string, bool, error) {
	if int(l.n) >= l.N {
		return nil, false, nil
	}
	row, ok, err := l.Child.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	l.n++
	return row, true, nil
}

func (l *Limit) Close()           { l.Child.Close() }
func (l *Limit) Kids() []Op       { return []Op{l.Child} }
func (l *Limit) Describe() string { return fmt.Sprintf("limit %d", l.N) }

// oneRow emits a single empty row: the evaluation seed of a node-query
// with no declared variables (the predicate evaluates once).
type oneRow struct {
	emitted
	done bool
}

func (o *oneRow) Cols() []string          { return nil }
func (o *oneRow) Open(*relmodel.DB) error { o.done, o.n = false, 0; return nil }
func (o *oneRow) Close()                  {}
func (o *oneRow) Kids() []Op              { return nil }
func (o *oneRow) Describe() string        { return "one-row" }
func (o *oneRow) Next() ([]string, bool, error) {
	if o.done {
		return nil, false, nil
	}
	o.done = true
	o.n++
	return []string{}, true, nil
}

// Run opens the tree against one node's relations, drains it into a
// result table and closes it.
func Run(root Op, db *relmodel.DB) (*nodequery.Table, error) {
	if err := root.Open(db); err != nil {
		return nil, err
	}
	defer root.Close()
	t := &nodequery.Table{Cols: root.Cols()}
	if t.Cols == nil {
		t.Cols = []string{}
	}
	for {
		row, ok, err := root.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// --- shared row machinery ---

func colIndex(cols []string) map[string]int {
	m := make(map[string]int, len(cols))
	for i, c := range cols {
		if _, dup := m[c]; !dup { // first binding wins, like nested-loop scoping
			m[c] = i
		}
	}
	return m
}

func keyIndexes(keys []nodequery.ColRef, cols []string) ([]int, error) {
	idx := colIndex(cols)
	out := make([]int, len(keys))
	for i, k := range keys {
		j, ok := idx[k.String()]
		if !ok {
			return nil, fmt.Errorf("plan: join key %s not in input [%s]", k, strings.Join(cols, ", "))
		}
		out[i] = j
	}
	return out, nil
}

func hashKey(row []string, idx []int) string {
	parts := make([]string, len(idx))
	for i, j := range idx {
		parts[i] = nodequery.CanonVal(row[j])
	}
	return strings.Join(parts, "\x00")
}

// orderIndexes resolves order keys by their rendered name against cols.
func orderIndexes(keys []nodequery.OrderKey, cols []string) ([]int, []bool, error) {
	idx := colIndex(cols)
	pos := make([]int, len(keys))
	desc := make([]bool, len(keys))
	for i, k := range keys {
		j, ok := idx[k.Col.String()]
		if !ok {
			return nil, nil, fmt.Errorf("plan: order key %s not in input [%s]", k.Col, strings.Join(cols, ", "))
		}
		pos[i], desc[i] = j, k.Desc
	}
	return pos, desc, nil
}

// sortRowsBy orders rows by the key columns (CompareVals semantics,
// desc per key) with the whole row as the final tiebreak, so equal-key
// rows still land in one deterministic order everywhere.
func sortRowsBy(rows [][]string, idx []int, desc []bool) {
	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for i, j := range idx {
			c := nodequery.CompareVals(ra[j], rb[j])
			if c == 0 {
				continue
			}
			if desc[i] {
				return c > 0
			}
			return c < 0
		}
		return lessRows(ra, rb)
	})
}

func lessRows(a, b []string) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

// SortLimit applies an output spec's ordering and limit to finished
// rows whose order keys are plain columns of cols (the non-grouped
// final-stage case; validation guarantees resolvability). With no
// order keys it sorts lexicographically — the classic deterministic
// display order — before limiting.
func SortLimit(rows [][]string, cols []string, spec *nodequery.OutputSpec) [][]string {
	if spec == nil || len(spec.OrderBy) == 0 {
		nodequery.SortRows(rows)
	} else if idx, desc, err := orderIndexes(spec.OrderBy, cols); err == nil {
		sortRowsBy(rows, idx, desc)
	} else {
		nodequery.SortRows(rows)
	}
	if spec != nil && spec.Limit > 0 && len(rows) > spec.Limit {
		rows = rows[:spec.Limit]
	}
	return rows
}
