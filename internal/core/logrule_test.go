package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"webdis/internal/centralized"
	"webdis/internal/disql"
	"webdis/internal/nodeproc"
	"webdis/internal/pre"
	"webdis/internal/webgraph"
)

// The Node-query Log Table's one rule (§3.1.1, decided by language
// containment) against the table switched off: the same rows, never more
// evaluations. The centralized baseline visits breadth-first through the
// engine's own Visitor and log table, so its counts repeat run after run.

// markerSrc selects the marker pages reached from web's first page by p.
func markerSrc(web *webgraph.Web, p string) *disql.WebQuery {
	return disql.MustParse(fmt.Sprintf(`select d.url from document d such that %q %s d where d.text contains %q`,
		web.First(), p, webgraph.Marker))
}

// randomPRE is a PRE over I, L, G and N nested depth deep, its stars
// bounded by 3. L and G are drawn twice as often: the random webs have
// no interior links, and a PRE must reach pages to test anything.
func randomPRE(r *rand.Rand, depth int) pre.Expr {
	if depth == 0 {
		return [...]pre.Expr{pre.Sym(pre.Interior), pre.Sym(pre.Local), pre.Sym(pre.Global), pre.Eps(), pre.Sym(pre.Local), pre.Sym(pre.Global)}[r.Intn(6)]
	}
	switch r.Intn(4) {
	case 0:
		return pre.Cat(randomPRE(r, depth-1), randomPRE(r, depth-1))
	case 1:
		return pre.Alt(randomPRE(r, depth-1), randomPRE(r, depth-1))
	case 2:
		return pre.Rep(randomPRE(r, depth-1), 1+r.Intn(3))
	}
	return randomPRE(r, depth-1)
}

func centralRun(t *testing.T, d *Deployment, w *disql.WebQuery, mode nodeproc.DedupMode) *centralized.Result {
	t.Helper()
	res, err := centralized.Run(d.Network(), "central/results", w, centralized.Options{Dedup: mode})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLogRuleDifferential runs 51 random PREs on three small random webs.
// Without the log table every path is walked, so the PREs are drawn with
// paths of at most six links.
func TestLogRuleDifferential(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(48))
	var evals, offEvals int
	for w := int64(0); w < 3; w++ {
		web := webgraph.Random(webgraph.RandomOpts{
			Sites: 3, PagesPerSite: 5, LocalOut: 2, GlobalOut: 3,
			MarkerFrac: 0.5, FillerWords: 20, Seed: 200 + w,
		})
		d := deployCfg(t, Config{Web: web})
		for n := 0; n < 17; {
			p := randomPRE(r, 3)
			if pre.MaxLen(p) > 6 {
				continue
			}
			n++
			q := markerSrc(web, p.String())
			off, one := centralRun(t, d, q, nodeproc.DedupOff), centralRun(t, d, q, nodeproc.DedupSubsume)
			if !reflect.DeepEqual(one.Tables, off.Tables) {
				t.Errorf("web %d, %s: rows %v, off %v", w, p, one.Tables, off.Tables)
			}
			if one.Stats.Evaluations > off.Stats.Evaluations {
				t.Errorf("web %d, %s: %d evaluations, off %d", w, p, one.Stats.Evaluations, off.Stats.Evaluations)
			}
			evals += one.Stats.Evaluations
			offEvals += off.Stats.Evaluations
		}
	}
	t.Logf("51 PREs: %d evaluations, %d with the log table off", evals, offEvals)
}

// TestLogRuleLanguageEqualStates: the two PREs of a random-query probe
// whose derivative states multiplied under the syntactic star-bound rule
// (724 and 390 evaluations on this 15-page web; 15 each when every
// arrival was checked by DFA containment).
// ((G·(L|G))*3·(L*3|G))* denotes (L|G)*, every derivative of which is
// nullable, so each of the 15 reachable pages is evaluated at least once;
// 15 evaluations is each exactly once, and the rows are (L|G)*'s own.
func TestLogRuleLanguageEqualStates(t *testing.T) {
	t.Parallel()
	web := webgraph.Random(webgraph.RandomOpts{
		Sites: 5, PagesPerSite: 3, LocalOut: 3, GlobalOut: 3,
		MarkerFrac: 0.5, FillerWords: 20, Seed: 102,
	})
	d := deployCfg(t, Config{Web: web})
	star := centralRun(t, d, markerSrc(web, "((G·(L|G))*3·(L*3|G))*"), nodeproc.DedupSubsume)
	if got := star.Stats.Evaluations; got != web.NumPages() {
		t.Errorf("((G·(L|G))*3·(L*3|G))*: %d evaluations, want one per page, %d", got, web.NumPages())
	}
	plain := centralRun(t, d, markerSrc(web, "(L|G)*"), nodeproc.DedupSubsume)
	if !reflect.DeepEqual(star.Tables, plain.Tables) {
		t.Errorf("((G·(L|G))*3·(L*3|G))* rows %v, (L|G)* rows %v", star.Tables, plain.Tables)
	}
	if got := centralRun(t, d, markerSrc(web, "((G|(G|L)*3)·G)*"), nodeproc.DedupSubsume).Stats.Evaluations; got > 15 {
		t.Errorf("((G|(G|L)*3)·G)*: %d evaluations, want at most 15", got)
	}
}
