package plan

import (
	"fmt"
	"strings"

	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
)

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
// Distinct and the final sort make irrelevant). env supplies the
// correlated-stage outer values, keyed "var.col".
func Compile(q *nodequery.Query, env map[string]string) (Op, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	for _, c := range q.Outer {
		if _, ok := env[c.String()]; !ok {
			return nil, fmt.Errorf("plan: no environment value for outer reference %s", c)
		}
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
		return &Filter{Child: child, Pred: nodequery.Conj(preds...), Env: env}
	}
	for _, v := range q.Vars {
		var sub Op = &Scan{Rel: strings.ToLower(v.Rel), Var: v.Name}
		sub = takeFilter(sub, map[string]bool{v.Name: true})
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
			cur = &HashJoin{Left: cur, Right: sub, LeftKeys: lk, RightKeys: rk}
		} else {
			cur = &NestLoop{Left: cur, Right: sub}
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
	cur = &Project{Child: cur, Refs: q.Select, Env: env}
	return &Distinct{Child: cur}, nil
}

// EvalStats summarizes one evaluation for the metrics snapshot.
type EvalStats struct {
	Scanned int64 // tuples read out of the virtual relations
	Emitted int64 // distinct result rows produced
}

// Eval compiles and runs the operator pipeline for one node, returning
// the projected distinct result table: the node-query evaluator every
// site runs.
func Eval(q *nodequery.Query, db *relmodel.DB, env map[string]string) (*nodequery.Table, EvalStats, error) {
	root, err := Compile(q, env)
	if err != nil {
		return nil, EvalStats{}, err
	}
	t, err := Run(root, db)
	if err != nil {
		return nil, EvalStats{}, err
	}
	return t, collectStats(root), nil
}

func collectStats(root Op) EvalStats {
	st := EvalStats{Emitted: root.Emitted()}
	var walk func(op Op)
	walk = func(op Op) {
		if sc, ok := op.(*Scan); ok {
			st.Scanned += sc.Emitted()
		}
		for _, k := range op.Kids() {
			walk(k)
		}
	}
	walk(root)
	return st
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

// evalPredRow evaluates a predicate over one pipeline row, mirroring
// nodequery's evaluator value for value (Contains is case-insensitive
// substring; ordered comparisons go numeric when both sides parse).
func evalPredRow(p *nodequery.Pred, idx map[string]int, row []string, env map[string]string) (bool, error) {
	if p == nil {
		return true, nil
	}
	switch p.Kind {
	case nodequery.True:
		return true, nil
	case nodequery.And:
		for _, k := range p.Kids {
			ok, err := evalPredRow(k, idx, row, env)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case nodequery.Or:
		for _, k := range p.Kids {
			ok, err := evalPredRow(k, idx, row, env)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case nodequery.Not:
		ok, err := evalPredRow(p.Kids[0], idx, row, env)
		return !ok, err
	case nodequery.Cmp:
		left, err := rowVal(p.Left, idx, row, env)
		if err != nil {
			return false, err
		}
		right, err := rowVal(p.Right, idx, row, env)
		if err != nil {
			return false, err
		}
		switch p.Op {
		case nodequery.Contains:
			return containsFold(left, right), nil
		case nodequery.NotContains:
			return !containsFold(left, right), nil
		}
		c := nodequery.CompareVals(left, right)
		switch p.Op {
		case nodequery.Eq:
			return c == 0, nil
		case nodequery.Ne:
			return c != 0, nil
		case nodequery.Lt:
			return c < 0, nil
		case nodequery.Le:
			return c <= 0, nil
		case nodequery.Gt:
			return c > 0, nil
		case nodequery.Ge:
			return c >= 0, nil
		}
		return false, fmt.Errorf("plan: unknown comparison operator %d", p.Op)
	}
	return false, fmt.Errorf("plan: unknown predicate kind %d", p.Kind)
}

func rowVal(o nodequery.Operand, idx map[string]int, row []string, env map[string]string) (string, error) {
	if !o.IsCol {
		return o.Lit, nil
	}
	name := o.Col.String()
	if i, ok := idx[name]; ok {
		return row[i], nil
	}
	if v, ok := env[name]; ok {
		return v, nil
	}
	return "", fmt.Errorf("plan: unbound column %s", name)
}
