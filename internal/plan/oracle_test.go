package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
)

// The reference evaluator the operator pipeline is checked against: the
// paper's nested-loop node-query matcher, kept in tests only since Eval
// replaced it on every production path.

// binding maps a variable name to its current tuple and relation.
type binding struct {
	rel *relmodel.Relation
	tup relmodel.Tuple
}

// evalEnv evaluates the node-query against the virtual relations of one
// node. Evaluation is a nested-loop join across the declared variables
// (document databases are tiny — the paper builds and purges them per
// query), with the such-that and where predicates as the join condition
// and a final distinct projection. outer supplies the values of Outer
// column references, keyed by their "var.col" form.
func evalEnv(q *nodequery.Query, db *relmodel.DB, outer map[string]string) (*nodequery.Table, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	for _, c := range q.Outer {
		if _, ok := outer[c.String()]; !ok {
			return nil, fmt.Errorf("nodequery: no environment value for outer reference %s", c)
		}
	}
	cols := make([]string, len(q.Select))
	for i, c := range q.Select {
		cols[i] = c.String()
	}
	out := &nodequery.Table{Cols: cols}
	env := make(map[string]binding, len(q.Vars))

	cond := nodequery.Conj(q.Where)
	var decls []*nodequery.Pred
	for _, v := range q.Vars {
		decls = append(decls, v.Cond)
	}
	cond = nodequery.Conj(append(decls, cond)...)

	var rec func(i int) error
	rec = func(i int) error {
		if i == len(q.Vars) {
			ok, err := evalPred(cond, env, outer)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			row := make([]string, len(q.Select))
			for j, c := range q.Select {
				v, err := lookup(c, env, outer)
				if err != nil {
					return err
				}
				row[j] = v
			}
			out.Rows = append(out.Rows, row)
			return nil
		}
		v := q.Vars[i]
		rel, err := db.Relation(v.Rel)
		if err != nil {
			return err
		}
		for _, tup := range rel.Tuples {
			env[v.Name] = binding{rel, tup}
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(env, v.Name)
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	out.Rows = distinct(out.Rows)
	return out, nil
}

func lookup(c nodequery.ColRef, env map[string]binding, outer map[string]string) (string, error) {
	b, ok := env[c.Var]
	if !ok {
		if v, ok := outer[c.String()]; ok {
			return v, nil
		}
		return "", fmt.Errorf("nodequery: unbound variable %q", c.Var)
	}
	idx := b.rel.Col(c.Col)
	if idx < 0 {
		return "", fmt.Errorf("nodequery: relation %q has no attribute %q", b.rel.Name, c.Col)
	}
	return b.tup[idx], nil
}

func evalPred(p *nodequery.Pred, env map[string]binding, outer map[string]string) (bool, error) {
	if p == nil {
		return true, nil
	}
	switch p.Kind {
	case nodequery.True:
		return true, nil
	case nodequery.And:
		for _, k := range p.Kids {
			ok, err := evalPred(k, env, outer)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case nodequery.Or:
		for _, k := range p.Kids {
			ok, err := evalPred(k, env, outer)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case nodequery.Not:
		ok, err := evalPred(p.Kids[0], env, outer)
		return !ok, err
	case nodequery.Cmp:
		return evalCmp(p, env, outer)
	}
	return false, fmt.Errorf("nodequery: unknown predicate kind %d", p.Kind)
}

func evalCmp(p *nodequery.Pred, env map[string]binding, outer map[string]string) (bool, error) {
	left, err := operandValue(p.Left, env, outer)
	if err != nil {
		return false, err
	}
	right, err := operandValue(p.Right, env, outer)
	if err != nil {
		return false, err
	}
	switch p.Op {
	case nodequery.Contains:
		return strings.Contains(strings.ToLower(left), strings.ToLower(right)), nil
	case nodequery.NotContains:
		return !strings.Contains(strings.ToLower(left), strings.ToLower(right)), nil
	}
	// Numeric comparison when both sides are numbers (NaN is not one:
	// unordered, it would equal every number), else string order.
	var c int
	ln, lerr := strconv.ParseFloat(left, 64)
	rn, rerr := strconv.ParseFloat(right, 64)
	if lerr == nil && rerr == nil && !math.IsNaN(ln) && !math.IsNaN(rn) {
		switch {
		case ln < rn:
			c = -1
		case ln > rn:
			c = 1
		}
	} else {
		c = strings.Compare(left, right)
	}
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
	return false, fmt.Errorf("nodequery: unknown comparison operator %d", p.Op)
}

func operandValue(o nodequery.Operand, env map[string]binding, outer map[string]string) (string, error) {
	if o.IsCol {
		return lookup(o.Col, env, outer)
	}
	return o.Lit, nil
}

// distinct removes duplicate rows preserving first-occurrence order.
func distinct(rows [][]string) [][]string {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := strings.Join(r, "\x00")
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func TestDistinctRows(t *testing.T) {
	rows := [][]string{{"a", "b"}, {"a", "b"}, {"c", "d"}, {"a", "b"}}
	got := distinct(rows)
	if len(got) != 2 {
		t.Fatalf("distinct = %v", got)
	}
}

func TestQuickDistinctIdempotent(t *testing.T) {
	f := func(vals []string) bool {
		rows := make([][]string, len(vals))
		for i, v := range vals {
			rows[i] = []string{v}
		}
		once := distinct(rows)
		copyOnce := make([][]string, len(once))
		copy(copyOnce, once)
		twice := distinct(copyOnce)
		if len(once) != len(twice) {
			return false
		}
		seen := map[string]bool{}
		for _, r := range once {
			if seen[r[0]] {
				return false
			}
			seen[r[0]] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCmpTotalOrder(t *testing.T) {
	// Property: for any two literals exactly one of <, =, > holds under
	// evalCmp semantics.
	lit := nodequery.LitOperand
	f := func(a, b string) bool {
		env := map[string]binding{}
		lt, _ := evalCmp(nodequery.Compare(lit(a), nodequery.Lt, lit(b)), env, nil)
		eq, _ := evalCmp(nodequery.Compare(lit(a), nodequery.Eq, lit(b)), env, nil)
		gt, _ := evalCmp(nodequery.Compare(lit(a), nodequery.Gt, lit(b)), env, nil)
		n := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
