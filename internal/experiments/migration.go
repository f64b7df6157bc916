package experiments

import (
	"fmt"
	"io"
	"time"

	"webdis/internal/core"
	"webdis/internal/webgraph"
)

// MigrationRow is one participation level of experiment T8.
type MigrationRow struct {
	Percent     int
	Bytes       int64
	ServerEvals int64
	UserEvals   int
	Fetches     int
	Bounces     int64
}

// Migration runs experiment T8, quantifying the paper's Section 7.1
// migration path: the same query over the same web as the fraction of
// sites running a WEBDIS query server grows from none (fully centralized)
// to all (fully distributed). Non-participating sites' clones bounce back
// to the user-site, whose hybrid fallback downloads their documents and
// evaluates centrally, rejoining distributed mode at the next
// participating site.
func Migration(w io.Writer) ([]MigrationRow, error) {
	fmt.Fprintln(w, "T8: the centralized-to-distributed migration path (paper §7.1)")
	web := webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 4, PagesPerSite: 4,
		MarkerFrac: 0.1, FillerWords: 300, Seed: 17,
	})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)* d where d.text contains %q`,
		web.First(), webgraph.Marker)
	hosts := web.Hosts()
	fmt.Fprintf(w, "workload: %d pages on %d sites (~%s/page), selective token query\n\n",
		web.NumPages(), web.NumSites(), fmtBytes(web.TotalBytes()/int64(web.NumPages())))

	var out []MigrationRow
	var rows [][]string
	for _, pct := range []int{0, 25, 50, 75, 100} {
		cut := len(hosts) * pct / 100
		set := make(map[string]bool, cut)
		for _, h := range hosts[:cut] {
			set[h] = true
		}
		d, err := core.NewDeployment(core.Config{
			Web: web,
			Exec: core.ExecConfig{
				Participate: func(site string) bool { return set[site] },
			},
		})
		if err != nil {
			return nil, err
		}
		q, err := d.Run(src, 30*time.Second)
		if err != nil {
			d.Close()
			return nil, err
		}
		m := d.Metrics().Snapshot()
		fs := q.FallbackStats()
		r := MigrationRow{
			Percent:     pct,
			Bytes:       d.Network().Stats().Snapshot().Total().Bytes,
			ServerEvals: m.Evaluations,
			UserEvals:   fs.Evaluations,
			Fetches:     fs.Fetches,
			Bounces:     m.Bounced,
		}
		nrows := 0
		for _, tbl := range q.Results() {
			nrows += len(tbl.Rows)
		}
		d.Close()
		out = append(out, r)
		rows = append(rows, []string{
			fmt.Sprintf("%d%%", pct),
			fmtBytes(r.Bytes),
			fmt.Sprintf("%d", r.ServerEvals),
			fmt.Sprintf("%d", r.UserEvals),
			fmt.Sprintf("%d", r.Fetches),
			fmt.Sprintf("%d", nrows),
		})
	}
	table(w, []string{"participating sites", "network bytes", "server evals", "user-site evals", "docs downloaded", "result rows"}, rows)
	fmt.Fprintln(w, "\nshape check: answers are identical at every participation level; as sites")
	fmt.Fprintln(w, "adopt WEBDIS, evaluation moves from the user-site to the web, document")
	fmt.Fprintln(w, "downloads vanish, and total traffic falls toward the fully distributed cost —")
	fmt.Fprintln(w, "the paper's \"gradual migration path from a largely centralized to a fully")
	fmt.Fprintln(w, "distributed system\".")
	return out, nil
}
