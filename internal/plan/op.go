// Package plan implements the volcano/iterator operator pipeline that
// evaluates node-queries at a site — scan over the virtual relations,
// filter, hash-join, nest-loop product, project, distinct — and the
// output stage built on top of it: the partial aggregate or top-K every
// site applies to its final-stage rows (wire.PlanFrag), and the merge of
// those partial states at the user-site.
//
// The pipeline replaces the paper's nested-loop matcher as the
// site-local evaluator (nodeproc's traversal step runs a compiled Tree at
// every node). It is observationally
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

// Op is one node of a volcano operator tree. Compile builds the tree once
// per node-query and fixes every operator's output columns and column
// positions then. Open binds the tree to one node's virtual relations and
// environment (the correlated-stage outer values, keyed "var.col") and
// resets its state, so the goroutine that owns a tree runs it at node
// after node. Next pulls one row at a time (ok=false at end of stream),
// Close releases the node's rows. Cols names the output columns in
// "var.col" form; Kids and Describe drive Explain; Emitted counts rows
// produced since Open, feeding the per-operator statistics snapshot.
type Op interface {
	Open(db *relmodel.DB, env map[string]string) error
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
	cols   []string
	tuples []relmodel.Tuple
	pos    int
}

func newScan(rel, v string) *Scan {
	rel = strings.ToLower(rel)
	schema := relmodel.Schemas[rel]
	s := &Scan{Rel: rel, Var: v, cols: make([]string, len(schema))}
	for i, c := range schema {
		s.cols[i] = v + "." + c
	}
	return s
}

func (s *Scan) Cols() []string { return s.cols }

func (s *Scan) Open(db *relmodel.DB, _ map[string]string) error {
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
	emitted
	conjs   []*nodequery.Pred // Pred's top-level conjuncts
	conds   []cond            // conjs compiled against Child's columns
	docVars map[string]bool   // variables of the document Scans under Child
	outer   outerVals
	// live lists the conds the DB's text oracle left undecided at Open
	// (see textfold.go); never short-circuits the stream when a decided
	// conjunct is false — the child is then not even opened, so the
	// relations under it are never materialised.
	live  []int
	never bool
}

func newFilter(child Op, conjs []*nodequery.Pred) *Filter {
	f := &Filter{
		Child: child, Pred: nodequery.Conj(conjs...), conjs: conjs,
		conds: make([]cond, len(conjs)), docVars: docScanVars(child),
		live: make([]int, 0, len(conjs)),
	}
	idx := colIndex(child.Cols())
	for i, p := range conjs {
		f.conds[i] = compileCond(p, idx, &f.outer)
	}
	return f
}

func (f *Filter) Cols() []string { return f.Child.Cols() }

func (f *Filter) Open(db *relmodel.DB, env map[string]string) error {
	f.n, f.never, f.live = 0, false, f.live[:0]
	if err := f.outer.bind(env); err != nil {
		return err
	}
	for i, c := range f.conjs {
		if db.Text != nil {
			if hit, decided := foldOne(c, f.docVars, db.Text); decided {
				if !hit {
					f.never = true
					return nil
				}
				continue // decided true: drop from the residual
			}
		}
		f.live = append(f.live, i)
	}
	return f.Child.Open(db, env)
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
		if f.pass(row) {
			f.n++
			return row, true, nil
		}
	}
}

func (f *Filter) pass(row []string) bool {
	for _, i := range f.live {
		if !f.conds[i].eval(row, f.outer.vals) {
			return false
		}
	}
	return true
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
	cols       []string
	lidx, ridx []int
	table      map[string][][]string
	cur        []string
	matches    [][]string
	mi         int
}

func newHashJoin(left, right Op, lk, rk []nodequery.ColRef) (*HashJoin, error) {
	lidx, err := keyIndexes(lk, left.Cols())
	if err != nil {
		return nil, err
	}
	ridx, err := keyIndexes(rk, right.Cols())
	if err != nil {
		return nil, err
	}
	return &HashJoin{Left: left, Right: right, LeftKeys: lk, RightKeys: rk,
		cols: joinCols(left, right), lidx: lidx, ridx: ridx}, nil
}

func (j *HashJoin) Cols() []string { return j.cols }

func (j *HashJoin) Open(db *relmodel.DB, env map[string]string) error {
	j.n, j.cur, j.matches, j.mi = 0, nil, nil, 0
	if err := j.Left.Open(db, env); err != nil {
		return err
	}
	if err := j.Right.Open(db, env); err != nil {
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
		k := hashKey(row, j.ridx)
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
	cols  []string
	cur   []string
	right [][]string
	ri    int
}

func newNestLoop(left, right Op) *NestLoop {
	return &NestLoop{Left: left, Right: right, cols: joinCols(left, right)}
}

func (j *NestLoop) Cols() []string { return j.cols }

func (j *NestLoop) Open(db *relmodel.DB, env map[string]string) error {
	j.n, j.cur, j.right, j.ri = 0, nil, nil, 0
	if err := j.Left.Open(db, env); err != nil {
		return err
	}
	if err := j.Right.Open(db, env); err != nil {
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
	emitted
	cols  []string
	args  []arg // per select column: a child position or an outer slot
	outer outerVals
}

func newProject(child Op, refs []nodequery.ColRef) *Project {
	p := &Project{Child: child, Refs: refs, cols: make([]string, len(refs)), args: make([]arg, len(refs))}
	idx := colIndex(child.Cols())
	for i, r := range refs {
		p.cols[i] = r.String()
		p.args[i] = resolve(r, idx, &p.outer)
	}
	return p
}

func (p *Project) Cols() []string { return p.cols }

func (p *Project) Open(db *relmodel.DB, env map[string]string) error {
	p.n = 0
	if err := p.outer.bind(env); err != nil {
		return err
	}
	return p.Child.Open(db, env)
}

func (p *Project) Next() ([]string, bool, error) {
	row, ok, err := p.Child.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	out := make([]string, len(p.args))
	for i, a := range p.args {
		out[i] = a.value(row, p.outer.vals)
	}
	p.n++
	return out, true, nil
}

func (p *Project) Close()           { p.Child.Close() }
func (p *Project) Kids() []Op       { return []Op{p.Child} }
func (p *Project) Describe() string { return "project [" + strings.Join(p.cols, ", ") + "]" }

// Distinct passes each row once (byte equality, first occurrence),
// matching nodequery's final distinct projection.
type Distinct struct {
	Child Op
	emitted
	// seen holds the key of every row passed since Open: a one-column
	// row's value itself, a wider row's cells joined by NULs. A value may
	// view the node's pooled DB, so Close empties seen — run closes the
	// tree before the node's DB is Released.
	seen map[string]bool
	key  []byte // a wider row's key, built here and copied only on insert
}

func (d *Distinct) Cols() []string { return d.Child.Cols() }

func (d *Distinct) Open(db *relmodel.DB, env map[string]string) error {
	if d.seen == nil {
		d.seen = make(map[string]bool)
	}
	d.n = 0
	return d.Child.Open(db, env)
}

func (d *Distinct) Next() ([]string, bool, error) {
	for {
		row, ok, err := d.Child.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		if len(row) == 1 {
			if d.seen[row[0]] {
				continue
			}
			d.seen[row[0]] = true
		} else {
			d.key = d.key[:0]
			for i, c := range row {
				if i > 0 {
					d.key = append(d.key, 0)
				}
				d.key = append(d.key, c...)
			}
			if d.seen[string(d.key)] {
				continue
			}
			d.seen[string(d.key)] = true
		}
		d.n++
		return row, true, nil
	}
}

func (d *Distinct) Close()           { d.Child.Close(); clear(d.seen) }
func (d *Distinct) Kids() []Op       { return []Op{d.Child} }
func (d *Distinct) Describe() string { return "distinct" }

// oneRow emits a single empty row: the evaluation seed of a node-query
// with no declared variables (the predicate evaluates once).
type oneRow struct {
	emitted
	done bool
}

func (o *oneRow) Cols() []string                             { return nil }
func (o *oneRow) Open(*relmodel.DB, map[string]string) error { o.done, o.n = false, 0; return nil }
func (o *oneRow) Close()                                     {}
func (o *oneRow) Kids() []Op                                 { return nil }
func (o *oneRow) Describe() string                           { return "one-row" }
func (o *oneRow) Next() ([]string, bool, error) {
	if o.done {
		return nil, false, nil
	}
	o.done = true
	o.n++
	return []string{}, true, nil
}

// run opens the tree against one node's relations and environment,
// drains it into a result table and closes it.
func run(root Op, db *relmodel.DB, env map[string]string) (*nodequery.Table, error) {
	if err := root.Open(db, env); err != nil {
		return nil, err
	}
	defer root.Close()
	t := &nodequery.Table{Cols: root.Cols()}
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

// joinCols is the output of a product: the left columns, then the right.
func joinCols(left, right Op) []string {
	l, r := left.Cols(), right.Cols()
	return append(append(make([]string, 0, len(l)+len(r)), l...), r...)
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
