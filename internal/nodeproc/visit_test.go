package nodeproc

import (
	"fmt"
	"sync/atomic"
	"testing"

	"webdis/internal/disql"
	"webdis/internal/plan"
	"webdis/internal/pre"
	"webdis/internal/relmodel"
	"webdis/internal/wire"
)

// pageSite serves nodeHTML at every URL (nodeproc.Site).
type pageSite struct{ span int64 }

func (s *pageSite) LoadDB(url string) (*relmodel.DB, error) { return BuildDB(url, []byte(nodeHTML)) }
func (s *pageSite) NextSpan() int64                         { s.span++; return s.span }

// TestBatchCompilesEachStageOnce: a clone message with N destinations
// evaluates both of its stages at every one of them, and each stage's
// node-query is compiled at the first node and reused at the rest; Reset
// drops the trees with the message.
func TestBatchCompilesEachStageOnce(t *testing.T) {
	first, second := stage("q1-answer"), stage("holds")
	first.PRE, second.PRE = pre.MustParse("N"), pre.MustParse("N")
	const n = 6
	c := &wire.CloneMsg{ID: qid, Rem: "N", Stages: EncodeStages([]disql.Stage{first, second})}
	for i := 0; i < n; i++ {
		c.Dest = append(c.Dest, wire.DestNode{URL: fmt.Sprintf("http://near.example/p%d.html", i)})
	}
	e := &Evaluator{Site: &pageSite{}, Origin: "near.example/query", Node: Visitor{Log: NewLogTable(DedupSubsume)}}
	var b Batch
	if err := b.Begin(e, c, 1, new(atomic.Int64)); err != nil {
		t.Fatal(err)
	}
	var compiled []*plan.Tree
	for i, d := range c.Dest {
		b.Add(d)
		if i == 0 {
			compiled = append(compiled, b.v.trees...)
			if len(compiled) != 2 || compiled[0] == nil || compiled[1] == nil {
				t.Fatalf("after the first node: trees = %v, want both stages compiled", compiled)
			}
			continue
		}
		for s, tree := range b.v.trees {
			if tree != compiled[s] {
				t.Fatalf("node %d recompiled stage %d", i, s)
			}
		}
	}
	if got := b.Finish().Evaluations; got != 2*n {
		t.Fatalf("evaluations = %d, want %d (both stages at every node)", got, 2*n)
	}
	b.Reset()
	if len(b.v.trees) != 0 || cap(b.v.trees) == 0 || b.v.trees[:cap(b.v.trees)][0] != nil {
		t.Fatalf("Reset kept the message's trees: %v", b.v.trees[:cap(b.v.trees)])
	}
}
