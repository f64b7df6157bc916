package plan

import (
	"fmt"

	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
)

// Tree is one node-query compiled into an operator tree. It is built
// once and run at node after node: each Eval binds one node's relations
// and environment, and nothing about the tree's shape, its columns or
// their positions is worked out again. The operators keep per-node state,
// so one goroutine runs a Tree at a time.
type Tree struct {
	root  Op
	outer []string // every outer reference of the query, "var.col"
	scans []*Scan  // the leaves, whose rows are the scan statistics
}

// Compile translates one node-query into an operator tree, with the
// classic single-site optimizations applied:
//
//   - selection pushdown: every top-level conjunct whose references are
//     covered by a single variable (plus outer/env constants) becomes a
//     Filter directly above that variable's Scan;
//   - join detection: an equality conjunct between columns of two
//     different variables turns the nest-loop product into a HashJoin
//     on those keys (the DISQL two-variable join);
//   - residual predicates attach at the lowest point where all their
//     variables are bound.
//
// Variables join left-deep in declaration order, exactly the paper's
// nested-loop order, so the result row set is identical to the paper's
// nested-loop evaluator (the test oracle; modulo row order, which
// Distinct and the final sort make irrelevant). The tree does not depend
// on the correlated-stage outer values: Eval supplies them per node.
func Compile(q *nodequery.Query) (*Tree, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{outer: make([]string, len(q.Outer))}
	for i, c := range q.Outer {
		t.outer[i] = c.String()
	}
	declared := make(map[string]bool, len(q.Vars))
	for _, v := range q.Vars {
		declared[v.Name] = true
	}
	// The conjunct pool: the where clause plus every such-that condition,
	// split at top-level ANDs.
	var pool []*nodequery.Pred
	pool = append(pool, flattenAnd(q.Where)...)
	for _, v := range q.Vars {
		pool = append(pool, flattenAnd(v.Cond)...)
	}
	used := make([]bool, len(pool))
	vars := make([]map[string]bool, len(pool))
	for i, c := range pool {
		if err := checkPred(c); err != nil {
			return nil, err
		}
		vars[i] = localVars(c, declared)
	}

	bound := make(map[string]bool, len(q.Vars))
	var cur Op
	takeFilter := func(child Op, cover map[string]bool) Op {
		var preds []*nodequery.Pred
		for i := range pool {
			if used[i] || !subset(vars[i], cover) {
				continue
			}
			used[i] = true
			preds = append(preds, pool[i])
		}
		if len(preds) == 0 {
			return child
		}
		return newFilter(child, preds)
	}
	for _, v := range q.Vars {
		sc := newScan(v.Rel, v.Name)
		t.scans = append(t.scans, sc)
		sub := takeFilter(sc, map[string]bool{v.Name: true})
		if cur == nil {
			cur = sub
			bound[v.Name] = true
			continue
		}
		// Equi-join conjuncts linking the new variable to the bound set.
		var lk, rk []nodequery.ColRef
		for i, c := range pool {
			if used[i] || c.Kind != nodequery.Cmp || c.Op != nodequery.Eq ||
				!c.Left.IsCol || !c.Right.IsCol {
				continue
			}
			lv, rv := c.Left.Col.Var, c.Right.Col.Var
			switch {
			case bound[lv] && rv == v.Name:
				lk, rk = append(lk, c.Left.Col), append(rk, c.Right.Col)
			case bound[rv] && lv == v.Name:
				lk, rk = append(lk, c.Right.Col), append(rk, c.Left.Col)
			default:
				continue
			}
			used[i] = true
		}
		if len(lk) > 0 {
			j, err := newHashJoin(cur, sub, lk, rk)
			if err != nil {
				return nil, err
			}
			cur = j
		} else {
			cur = newNestLoop(cur, sub)
		}
		bound[v.Name] = true
		cur = takeFilter(cur, bound)
	}
	if cur == nil {
		cur = &oneRow{}
		cur = takeFilter(cur, bound)
	}
	// Anything left references undeclared-but-non-outer variables, which
	// Validate already rejected; keep a belt-and-braces filter anyway.
	cur = takeFilter(cur, declared)
	t.root = &Distinct{Child: newProject(cur, q.Select)}
	return t, nil
}

// EvalStats summarizes one evaluation for the metrics snapshot.
type EvalStats struct {
	Scanned int64 // tuples read out of the virtual relations
	Emitted int64 // distinct result rows produced
}

// Eval compiles and runs the operator pipeline for one node, returning
// the projected distinct result table: the node-query evaluator every
// site runs. env supplies the correlated-stage outer values, keyed
// "var.col". A caller evaluating one query at many nodes compiles it once
// and calls Tree.Eval per node instead.
func Eval(q *nodequery.Query, db *relmodel.DB, env map[string]string) (*nodequery.Table, EvalStats, error) {
	t, err := Compile(q)
	if err != nil {
		return nil, EvalStats{}, err
	}
	return t.Eval(db, env)
}

// Eval runs the tree at one node: over db's virtual relations, with env
// supplying the correlated-stage outer values, keyed "var.col".
func (t *Tree) Eval(db *relmodel.DB, env map[string]string) (*nodequery.Table, EvalStats, error) {
	for _, name := range t.outer {
		if _, ok := env[name]; !ok {
			return nil, EvalStats{}, fmt.Errorf("plan: no environment value for outer reference %s", name)
		}
	}
	// A scan under a filter the text oracle decides false is not opened,
	// so its count from the previous node is zeroed here.
	for _, sc := range t.scans {
		sc.n = 0
	}
	tbl, err := run(t.root, db, env)
	if err != nil {
		return nil, EvalStats{}, err
	}
	st := EvalStats{Emitted: t.root.Emitted()}
	for _, sc := range t.scans {
		st.Scanned += sc.Emitted()
	}
	return tbl, st, nil
}

// flattenAnd splits a predicate into its top-level conjuncts.
func flattenAnd(p *nodequery.Pred) []*nodequery.Pred {
	if p == nil || p.Kind == nodequery.True {
		return nil
	}
	if p.Kind == nodequery.And {
		var out []*nodequery.Pred
		for _, k := range p.Kids {
			out = append(out, flattenAnd(k)...)
		}
		return out
	}
	return []*nodequery.Pred{p}
}

// localVars collects the declared variables a predicate references;
// outer (environment) references are constants and don't count.
func localVars(p *nodequery.Pred, declared map[string]bool) map[string]bool {
	out := make(map[string]bool)
	var walk func(p *nodequery.Pred)
	walk = func(p *nodequery.Pred) {
		if p == nil {
			return
		}
		if p.Kind == nodequery.Cmp {
			for _, o := range []nodequery.Operand{p.Left, p.Right} {
				if o.IsCol && declared[o.Col.Var] {
					out[o.Col.Var] = true
				}
			}
			return
		}
		for _, k := range p.Kids {
			walk(k)
		}
	}
	walk(p)
	return out
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkPred rejects the predicate kinds and comparison operators the
// evaluator does not know, so a compiled predicate cannot fail per row.
func checkPred(p *nodequery.Pred) error {
	if p == nil {
		return nil
	}
	switch p.Kind {
	case nodequery.True:
	case nodequery.And, nodequery.Or, nodequery.Not:
		if p.Kind == nodequery.Not && len(p.Kids) != 1 {
			return fmt.Errorf("plan: not takes one operand, got %d", len(p.Kids))
		}
		for _, k := range p.Kids {
			if err := checkPred(k); err != nil {
				return err
			}
		}
	case nodequery.Cmp:
		switch p.Op {
		case nodequery.Eq, nodequery.Ne, nodequery.Lt, nodequery.Le, nodequery.Gt, nodequery.Ge,
			nodequery.Contains, nodequery.NotContains:
		default:
			return fmt.Errorf("plan: unknown comparison operator %d", p.Op)
		}
	default:
		return fmt.Errorf("plan: unknown predicate kind %d", p.Kind)
	}
	return nil
}

// cond is a predicate compiled against one operator's input: every column
// operand is resolved, when the tree is built, to a position in the input
// row or to a slot of the environment the operator binds at Open.
type cond struct {
	kind        nodequery.PredKind
	op          nodequery.CmpOp
	left, right arg
	kids        []cond
}

func compileCond(p *nodequery.Pred, idx map[string]int, outer *outerVals) cond {
	if p == nil {
		return cond{kind: nodequery.True}
	}
	c := cond{kind: p.Kind, op: p.Op}
	if p.Kind == nodequery.Cmp {
		c.left = operandArg(p.Left, idx, outer)
		c.right = operandArg(p.Right, idx, outer)
		return c
	}
	c.kids = make([]cond, len(p.Kids))
	for i, k := range p.Kids {
		c.kids[i] = compileCond(k, idx, outer)
	}
	return c
}

// eval evaluates the predicate over one input row, mirroring nodequery's
// evaluator value for value (Contains is case-insensitive substring;
// ordered comparisons go numeric when both sides parse).
func (c *cond) eval(row, env []string) bool {
	switch c.kind {
	case nodequery.And:
		for i := range c.kids {
			if !c.kids[i].eval(row, env) {
				return false
			}
		}
		return true
	case nodequery.Or:
		for i := range c.kids {
			if c.kids[i].eval(row, env) {
				return true
			}
		}
		return false
	case nodequery.Not:
		return !c.kids[0].eval(row, env)
	case nodequery.Cmp:
		return compare(c.op, c.left.value(row, env), c.right.value(row, env))
	}
	return true // nodequery.True
}

func compare(op nodequery.CmpOp, left, right string) bool {
	switch op {
	case nodequery.Contains:
		return containsFold(left, right)
	case nodequery.NotContains:
		return !containsFold(left, right)
	}
	c := nodequery.CompareVals(left, right)
	switch op {
	case nodequery.Eq:
		return c == 0
	case nodequery.Ne:
		return c != 0
	case nodequery.Lt:
		return c < 0
	case nodequery.Le:
		return c <= 0
	case nodequery.Gt:
		return c > 0
	}
	return c >= 0 // nodequery.Ge; checkPred admits no other operator
}

// arg is one value an operator reads per row: a literal, a column of the
// input row, or an outer reference's value in the bound environment.
type arg struct {
	from argFrom
	i    int // row position or outer slot
	lit  string
}

type argFrom uint8

const (
	fromLit argFrom = iota
	fromRow
	fromEnv
)

func (a arg) value(row, env []string) string {
	switch a.from {
	case fromRow:
		return row[a.i]
	case fromEnv:
		return env[a.i]
	}
	return a.lit
}

func operandArg(o nodequery.Operand, idx map[string]int, outer *outerVals) arg {
	if !o.IsCol {
		return arg{lit: o.Lit}
	}
	return resolve(o.Col, idx, outer)
}

// resolve finds a column reference in the input (idx, from colIndex);
// one the input lacks is an outer reference, read from the environment.
func resolve(c nodequery.ColRef, idx map[string]int, outer *outerVals) arg {
	name := c.String()
	if i, ok := idx[name]; ok {
		return arg{from: fromRow, i: i}
	}
	return arg{from: fromEnv, i: outer.slot(name)}
}

// outerVals holds the outer references one operator reads, by slot, and
// their values in the environment Open last bound.
type outerVals struct {
	names []string
	vals  []string
}

func (o *outerVals) slot(name string) int {
	for i, n := range o.names {
		if n == name {
			return i
		}
	}
	o.names = append(o.names, name)
	return len(o.names) - 1
}

func (o *outerVals) bind(env map[string]string) error {
	if len(o.vals) != len(o.names) {
		o.vals = make([]string, len(o.names))
	}
	for i, name := range o.names {
		v, ok := env[name]
		if !ok {
			return fmt.Errorf("plan: unbound column %s", name)
		}
		o.vals[i] = v
	}
	return nil
}
