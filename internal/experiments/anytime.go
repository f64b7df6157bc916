package experiments

import (
	"fmt"
	"io"
	"time"

	"webdis/internal/core"
	"webdis/internal/netsim"
	"webdis/internal/webgraph"
)

// AnytimeRow is one sample of the progressive-results curve.
type AnytimeRow struct {
	Elapsed  time.Duration
	Rows     int
	Progress float64
}

// AnytimeOut is the T10 result.
type AnytimeOut struct {
	Samples   []AnytimeRow
	FinalRows int
	Duration  time.Duration
}

// Anytime runs experiment T10: the progressive-delivery property of
// Section 2.6 — results return directly to the user-site as each node
// answers, so answers accumulate long before the query completes. The
// experiment samples the user-visible row count while a latency-bound
// query runs, and shows that cancelling early yields a usable approximate
// answer (the paper's Section 7.1 "approximate queries" in its simplest
// form).
func Anytime(w io.Writer) (*AnytimeOut, error) {
	fmt.Fprintln(w, "T10: anytime results (paper §2.6 streaming, §7.1 approximate queries)")
	web := webgraph.Tree(webgraph.TreeOpts{Fanout: 3, Depth: 4, PagesPerSite: 4, MarkerFrac: 0.3, Seed: 21})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)* d where d.text contains %q`,
		web.First(), webgraph.Marker)
	fmt.Fprintf(w, "workload: %d-page tree, 3ms per-message latency, selective query\n\n", web.NumPages())

	d, err := core.NewDeployment(core.Config{
		Web: web,
		Net: netsim.Options{Latency: 3 * time.Millisecond},
		Exec: core.ExecConfig{
			NoDocService: true,
		},
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()

	start := time.Now()
	q, err := d.SubmitDISQL(src)
	if err != nil {
		return nil, err
	}
	out := &AnytimeOut{}
	tick := time.NewTicker(4 * time.Millisecond)
	defer tick.Stop()
	for !q.Done() {
		<-tick.C
		out.Samples = append(out.Samples, AnytimeRow{
			Elapsed:  time.Since(start),
			Rows:     q.RowCount(),
			Progress: q.Progress(),
		})
	}
	if err := q.Wait(30 * time.Second); err != nil {
		return nil, err
	}
	out.Duration = time.Since(start)
	out.FinalRows = q.RowCount()

	var rows [][]string
	step := len(out.Samples) / 8
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(out.Samples); i += step {
		s := out.Samples[i]
		rows = append(rows, []string{
			s.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", s.Rows),
			fmt.Sprintf("%d%%", int(100*float64(s.Rows)/float64(max(out.FinalRows, 1)))),
			fmt.Sprintf("%d%%", int(100*s.Progress)),
		})
	}
	rows = append(rows, []string{out.Duration.Round(time.Millisecond).String(),
		fmt.Sprintf("%d", out.FinalRows), "100%", "100%"})
	table(w, []string{"elapsed", "rows at user-site", "of final answer", "CHT progress"}, rows)
	fmt.Fprintln(w, "\nshape check: the answer accumulates steadily — a user who cancels at any")
	fmt.Fprintln(w, "point keeps every row received so far, because results never wait for the")
	fmt.Fprintln(w, "query to finish (they are dispatched before the clone is even forwarded).")
	return out, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
