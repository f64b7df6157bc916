package experiments

import (
	"fmt"
	"io"

	"webdis/internal/nodeproc"
	"webdis/internal/pre"
	"webdis/internal/server"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// DedupRow is one log-table mode of experiment T3.
type DedupRow struct {
	Mode      nodeproc.DedupMode
	Evals     int64
	Drops     int64
	Rewrites  int64
	CloneMsgs int64
	Rows      int
}

// dedupWeb is a densely cross-linked web of single-page sites: every link
// is global, so duplicate arrivals at a node come from different sites
// through separate clone messages — the per-site batching cannot absorb
// them, and only the Node-query Log Table stands between the engine and
// the paper's "mirror clone chasing a processed clone" cascade.
func dedupWeb() *webgraph.Web {
	return webgraph.Random(webgraph.RandomOpts{
		Sites:        24,
		PagesPerSite: 1,
		LocalOut:     0,
		GlobalOut:    3,
		MarkerFrac:   0.4,
		FillerWords:  60,
		Seed:         31,
	})
}

// Dedup runs experiment T3: the Node-query Log Table ablation across all
// four modes. Result rows must be identical in every mode — the paper's
// point that the log table affects performance, never answers.
func Dedup(w io.Writer) ([]DedupRow, error) {
	fmt.Fprintln(w, "T3: Node-query Log Table ablation (paper §3.1)")
	web := dedupWeb()
	src := fmt.Sprintf(`select d.url from document d such that %q N|G*6 d where d.text contains %q`,
		web.First(), webgraph.Marker)
	fmt.Fprintf(w, "workload: %d single-page sites, 3-4 global links each, query N|G*6 for a token\n\n", web.NumPages())

	modes := []nodeproc.DedupMode{nodeproc.DedupOff, nodeproc.DedupExact, nodeproc.DedupSubsume, nodeproc.DedupStrong}
	var out []DedupRow
	var rows [][]string
	for _, mode := range modes {
		opts := server.Options{Dedup: mode}
		if mode == nodeproc.DedupOff {
			opts.MaxHops = 10 // safety: unbounded recomputation otherwise
		}
		run, err := runDistributed(web, netZero(), opts, src)
		if err != nil {
			return nil, err
		}
		nrows := 0
		for _, t := range run.results {
			nrows += len(t.Rows)
		}
		r := DedupRow{
			Mode:      mode,
			Evals:     run.metrics.Evaluations + run.metrics.DeadEnds,
			Drops:     run.metrics.DupDropped,
			Rewrites:  run.metrics.DupRewritten,
			CloneMsgs: run.metrics.ClonesForwarded + run.metrics.LocalClones,
			Rows:      nrows,
		}
		out = append(out, r)
		rows = append(rows, []string{
			mode.String(),
			fmt.Sprintf("%d", run.metrics.Evaluations),
			fmt.Sprintf("%d", r.Drops),
			fmt.Sprintf("%d", r.Rewrites),
			fmt.Sprintf("%d", r.CloneMsgs),
			fmt.Sprintf("%d", r.Rows),
		})
	}
	table(w, []string{"mode", "evaluations", "dropped", "rewritten", "clone msgs", "result rows"}, rows)
	fmt.Fprintln(w, "\nshape check: identical result rows in every mode; evaluations and clone")
	fmt.Fprintln(w, "messages fall sharply from off to exact, further with the paper's star-bound")
	fmt.Fprintln(w, "subsumption, and at most marginally again with full language containment.")
	return out, nil
}

// BatchRow is one configuration of experiment T4.
type BatchRow struct {
	Config    string
	CloneMsgs int64
	NetMsgs   int64
	Bytes     int64
}

// Batching runs experiment T4: per-site clone batching (Section 3.2,
// items 3 and 4) on and off, over a tree whose sibling pages share a site
// — the layout where one page fans out to many same-site, same-state
// targets, which is exactly what the paper's optimization merges into a
// single message.
func Batching(w io.Writer) ([]BatchRow, error) {
	fmt.Fprintln(w, "T4: clone batching ablation (paper §3.2, items 3-4)")
	web := webgraph.Tree(webgraph.TreeOpts{Fanout: 4, Depth: 4, PagesPerSite: 4, Seed: 7})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)* d where d.url contains "p"`, web.First())
	fmt.Fprintf(w, "workload: 4-ary depth-4 tree (%d pages, %d sites, siblings share a site)\n\n",
		web.NumPages(), web.NumSites())

	var out []BatchRow
	var rows [][]string
	for _, cfg := range []struct {
		name string
		opts server.Options
	}{
		{"batched (paper)", server.Options{}},
		{"one clone per node", server.Options{NoBatch: true}},
	} {
		run, err := runDistributed(web, netZero(), cfg.opts, src)
		if err != nil {
			return nil, err
		}
		r := BatchRow{
			Config:    cfg.name,
			CloneMsgs: run.metrics.ClonesForwarded + run.metrics.LocalClones,
			NetMsgs:   run.net.Messages,
			Bytes:     run.net.Bytes,
		}
		out = append(out, r)
		rows = append(rows, []string{cfg.name,
			fmt.Sprintf("%d", r.CloneMsgs),
			fmt.Sprintf("%d", r.NetMsgs),
			fmtBytes(r.Bytes)})
	}
	table(w, []string{"configuration", "clone dispatches", "network msgs", "network bytes"}, rows)
	fmt.Fprintln(w, "\nshape check: batching cuts clone dispatches and bytes by roughly the mean")
	fmt.Fprintln(w, "number of same-site same-state targets per hop.")
	return out, nil
}

// RewriteCase is one row of the T7 subsumption/rewrite walkthrough.
type RewriteCase struct {
	Logged  string
	Arrives string
	Action  string
	Rem     string
}

// Rewrite runs experiment T7: the Section 3.1.1 rules replayed through a
// real log table, including the multi-rewrite cascade on a live chain.
func Rewrite(w io.Writer) ([]RewriteCase, error) {
	fmt.Fprintln(w, "T7: star-bound subsumption and query rewriting (paper §3.1.1)")
	fmt.Fprintln(w, "\nlog-table decision table (node n, one query):")
	lt := nodeproc.NewLogTable(nodeproc.DedupSubsume)
	id := wire.QueryID{User: "t7", Site: "user/q1", Num: 1}
	arrivals := []string{"L*2·G", "L*1·G", "L*2·G", "L*4·G", "L*3·G", "L*·G", "G·L"}
	var out []RewriteCase
	var rows [][]string
	for _, a := range arrivals {
		rem := pre.MustParse(a)
		v := lt.Check("http://n.example/x.html", id, 1, rem, "")
		c := RewriteCase{Arrives: a, Action: v.Action.String()}
		if v.Action == nodeproc.Rewrite {
			c.Rem = v.Rem.String()
		}
		out = append(out, c)
		rows = append(rows, []string{a, c.Action, c.Rem})
	}
	table(w, []string{"arriving rem(p)", "verdict", "processed as"}, rows)

	// The multi-rewrite cascade, replayed deterministically: a chain of
	// nodes first explored under L*2 (logging L*2, L*1, N at successive
	// depths), then revisited by a clone carrying L*5. Per the paper, the
	// bigger clone is rewritten "at the first n nodes it subsequently
	// encounters" and only then proceeds unrewritten.
	fmt.Fprintln(w, "\nmulti-rewrite cascade along a chain (L*2 explored, then L*5 arrives):")
	cascade := nodeproc.NewLogTable(nodeproc.DedupSubsume)
	// First exploration: the L*2 clone's arrival states at depths 0..2.
	small := pre.MustParse("L*2")
	for depth, rem := 0, small; ; depth++ {
		cascade.Check(chainNode(depth), id, 1, rem, "")
		if len(pre.First(rem)) == 0 {
			break
		}
		rem = pre.Derive(rem, pre.Local)
	}
	// Second arrival: the L*5 clone walks the same chain.
	var crows [][]string
	rewrites := 0
	rem := pre.MustParse("L*5")
	for depth := 0; depth < 6; depth++ {
		v := cascade.Check(chainNode(depth), id, 1, rem, "")
		processedAs := rem.String()
		if v.Action == nodeproc.Rewrite {
			rewrites++
			processedAs = v.Rem.String()
		}
		crows = append(crows, []string{
			fmt.Sprintf("depth %d", depth), rem.String(), v.Action.String(), processedAs,
		})
		if v.Action == nodeproc.Drop {
			break
		}
		next := v.Rem
		if v.Action != nodeproc.Rewrite {
			next = rem
		}
		if len(pre.First(next)) == 0 {
			break
		}
		rem = pre.Derive(next, pre.Local)
	}
	table(w, []string{"node", "arriving rem(p)", "verdict", "processed as"}, crows)
	fmt.Fprintf(w, "\nrewritten %d times — exactly the paper's n (the depth of the earlier\n", rewrites)
	fmt.Fprintln(w, "exploration with a comparable star shape); beyond it the clone runs free.")
	return out, nil
}

func chainNode(depth int) string {
	return fmt.Sprintf("http://chain.example/p%d.html", depth)
}

// DeadEndsOut summarizes the dead-end semantics comparison.
type DeadEndsOut struct {
	WeakQ2Rows   int
	StrictQ2Rows int
}

// DeadEnds contrasts the dead-end semantics the paper's worked examples
// require (a failed node-query cancels only the stage advance) with the
// literal Figure-4 pseudocode (a failed node-query forwards nothing),
// on the paper's own campus query.
func DeadEnds(w io.Writer) (*DeadEndsOut, error) {
	fmt.Fprintln(w, "dead-end semantics (paper §2.5 vs its Figure-4 pseudocode)")
	fmt.Fprintln(w)
	weak, err := runDistributed(webgraph.Campus(), netZero(), server.Options{}, webgraph.CampusDISQL)
	if err != nil {
		return nil, err
	}
	strict, err := runDistributed(webgraph.Campus(), netZero(), server.Options{StrictDeadEnds: true}, webgraph.CampusDISQL)
	if err != nil {
		return nil, err
	}
	out := &DeadEndsOut{}
	for _, t := range weak.results {
		if t.Stage == 1 {
			out.WeakQ2Rows = len(t.Rows)
		}
	}
	for _, t := range strict.results {
		if t.Stage == 1 {
			out.StrictQ2Rows = len(t.Rows)
		}
	}
	table(w, []string{"semantics", "q2 rows (conveners found)"}, [][]string{
		{"examples-consistent (default)", fmt.Sprintf("%d", out.WeakQ2Rows)},
		{"literal Figure-4 pseudocode", fmt.Sprintf("%d", out.StrictQ2Rows)},
	})
	fmt.Fprintln(w, "\nunder the literal pseudocode the lab homepages whose own q2 fails would")
	fmt.Fprintln(w, "never forward the L*1 continuation, and the paper's own Figure-8 rows for")
	fmt.Fprintln(w, "the DSL and Compiler labs (conveners one local link deep) would be lost.")
	return out, nil
}
