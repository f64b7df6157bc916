package plan

import (
	"fmt"
	"strings"

	"webdis/internal/disql"
	"webdis/internal/nodequery"
)

// Explain renders the distributed plan for a web-query: the operator
// tree each site runs per stage, the user-site finalization pipeline,
// the fragment the planner pushes into clones, and the edge shipping
// policy. It needs no documents — the tree shape depends only on the
// query — so `webdis -explain` prints it without executing anything.
func Explain(w *disql.WebQuery, plannerOn bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", w.String())
	for i, s := range w.Stages {
		fmt.Fprintf(&b, "stage %d/%d  PRE %s\n", i+1, len(w.Stages), s.PRE)
		t, err := Compile(s.Query)
		if err != nil {
			fmt.Fprintf(&b, "  <uncompilable: %v>\n", err)
			continue
		}
		writeTree(&b, t.root, 1)
	}
	spec := w.Output
	var orderKeys []nodequery.OrderKey
	limit := 0
	if spec != nil {
		orderKeys, limit = spec.OrderBy, spec.Limit
	}
	b.WriteString("output at user site:\n")
	if spec.Grouped() {
		fmt.Fprintf(&b, "  final %s\n", describeAgg(spec))
	}
	if len(orderKeys) > 0 {
		fmt.Fprintf(&b, "  order by %s\n", joinKeys(orderKeys))
	}
	if limit > 0 {
		fmt.Fprintf(&b, "  limit %d\n", limit)
	}
	if !spec.Grouped() && len(orderKeys) == 0 && limit == 0 {
		b.WriteString("  merge + distinct per stage (classic)\n")
	}
	if !plannerOn {
		b.WriteString("pushdown: off (naive shipping: full per-node rows travel)\n")
		return b.String()
	}
	last := len(w.Stages) - 1
	switch {
	case spec.Grouped():
		acc := NewAcc(spec)
		pcols, _ := acc.PartialTable()
		fmt.Fprintf(&b, "pushdown: partial hash-agg at every site (frag v1 → stage %d): ships [%s] per contribution\n",
			last+1, strings.Join(pcols, ", "))
	case limit > 0:
		fmt.Fprintf(&b, "pushdown: per-node top-%d (frag v1 → stage %d): each site ships only its first %d rows under the global order\n",
			limit, last+1, limit)
	default:
		b.WriteString("pushdown: none applicable (no aggregation or limit)\n")
	}
	b.WriteString("edge policy: ship-data when dests·docBytes·bias < cloneBytes (site stats piggybacked on result frames); ship-query otherwise\n")
	return b.String()
}

func writeTree(b *strings.Builder, op Op, depth int) {
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), op.Describe())
	for _, k := range op.Kids() {
		writeTree(b, k, depth+1)
	}
}

func joinKeys(keys []nodequery.OrderKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.String()
	}
	return strings.Join(parts, ", ")
}

// describeAgg renders the user-site's final hash aggregation of spec.
func describeAgg(spec *nodequery.OutputSpec) string {
	keys := make([]string, len(spec.GroupBy))
	for i, k := range spec.GroupBy {
		keys[i] = k.String()
	}
	cols, _ := NewAcc(spec).FinalTable()
	return fmt.Sprintf("hash-agg group by [%s] → [%s]", strings.Join(keys, ", "), strings.Join(cols, ", "))
}
