package experiments

import (
	"fmt"
	"io"
	"time"

	"webdis/internal/core"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// CHTOut summarizes experiment T5.
type CHTOut struct {
	Entries    int
	Peak       int
	ResultMsgs int
	UserBytes  int64 // bytes into the result collector (results + CHT)
	Detection  time.Duration
}

// CHT runs experiment T5: what the Current Hosts Table protocol costs and
// buys. The paper's alternative — timeouts — must always wait the full
// timeout; the CHT detects completion at the instant the last report
// lands.
func CHT(w io.Writer) ([]CHTOut, error) {
	fmt.Fprintln(w, "T5: CHT completion-detection protocol (paper §2.7)")
	fmt.Fprintln(w)
	workloads := []struct {
		name string
		web  *webgraph.Web
		src  string
	}{
		{"campus convener query", webgraph.Campus(), webgraph.CampusDISQL},
		{"tree token search", nil, ""},
	}
	tw := webgraph.Tree(webgraph.TreeOpts{Fanout: 3, Depth: 4, PagesPerSite: 4, MarkerFrac: 0.1, Seed: 5})
	workloads[1].web = tw
	workloads[1].src = fmt.Sprintf(`select d.url from document d such that %q N|(L|G)* d where d.text contains %q`,
		tw.First(), webgraph.Marker)

	var out []CHTOut
	var rows [][]string
	for _, wl := range workloads {
		run, err := runDistributed(wl.web, netsim.Options{Latency: time.Millisecond}, server.Options{}, wl.src)
		if err != nil {
			return nil, err
		}
		o := CHTOut{
			Entries:    run.qstats.EntriesAdded,
			Peak:       run.qstats.PeakLive,
			ResultMsgs: run.qstats.ResultMsgs,
			UserBytes:  run.toUser.Bytes,
			Detection:  run.qstats.Duration,
		}
		out = append(out, o)
		rows = append(rows, []string{
			wl.name,
			fmt.Sprintf("%d", o.Entries),
			fmt.Sprintf("%d", o.Peak),
			fmt.Sprintf("%d", o.ResultMsgs),
			fmtBytes(o.UserBytes),
			o.Detection.Round(100 * time.Microsecond).String(),
		})
	}
	table(w, []string{"workload", "CHT entries", "peak live", "result msgs", "bytes to user", "completion detected"}, rows)
	fmt.Fprintln(w, "\nshape check: entry count equals the number of clone instances ever created")
	fmt.Fprintln(w, "(one table row per clone, retired exactly once). A timeout scheme with any")
	fmt.Fprintln(w, "safety margin T waits T beyond the last result no matter how early the query")
	fmt.Fprintln(w, "actually finished; the CHT detects completion with the final report itself.")
	return out, nil
}

// TerminationOut summarizes experiment T6.
type TerminationOut struct {
	FullEvals     int64 // evaluations when the query runs to completion
	CancelEvals   int64 // evaluations when cancelled mid-flight
	TerminatedAt  int64 // servers that observed the failed result dispatch
	ExtraMsgs     int64 // stops sent: one per site that had already reported, none chasing the clone
	SettledWithin time.Duration
}

// Termination runs experiment T6: cancel a deep traversal mid-flight and
// verify the paper's claim that termination is passive and bounded — no
// anti-messages chase the clones; each dies at its next result dispatch.
// The user-site's collector is shared by its queries and stays open, so
// the dispatch that fails is the first one of a site that has not reported
// to this user-site before (every site ahead of the clone on this chain);
// the sites behind it, whose sessions cannot be made to fail, are sent one
// stop each.
func Termination(w io.Writer) (*TerminationOut, error) {
	fmt.Fprintln(w, "T6: passive query termination (paper §2.8)")
	const depth = 50
	web := webgraph.Chain(depth, 1, 9)
	src := fmt.Sprintf(`select d.url from document d such that %q N|G* d`, web.First())
	fmt.Fprintf(w, "workload: %d-site chain, 2ms per-message latency, cancel after ~20ms\n\n", depth)

	// Reference run to completion.
	full, err := runDistributed(web, netsim.Options{Latency: 2 * time.Millisecond}, server.Options{}, src)
	if err != nil {
		return nil, err
	}

	// Cancelled run.
	d, err := core.NewDeployment(core.Config{
		Web: web,
		Net: netsim.Options{Latency: 2 * time.Millisecond},
		Exec: core.ExecConfig{
			NoDocService: true,
		},
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	q, err := d.SubmitDISQL(src)
	if err != nil {
		return nil, err
	}
	time.Sleep(20 * time.Millisecond)
	q.Cancel()
	cancelledAt := time.Now()

	// Wait for the web to go quiet: no new evaluations for a while.
	var settled time.Duration
	last := d.Metrics().Evaluations.Load()
	quiet := 0
	for waited := 0; waited < 2000; waited += 5 {
		time.Sleep(5 * time.Millisecond)
		cur := d.Metrics().Evaluations.Load()
		if cur == last {
			quiet++
			if quiet >= 10 {
				settled = time.Since(cancelledAt) - 50*time.Millisecond
				break
			}
		} else {
			quiet = 0
			last = cur
		}
	}
	m := d.Metrics().Snapshot()
	out := &TerminationOut{
		FullEvals:     full.metrics.Evaluations,
		CancelEvals:   m.Evaluations,
		TerminatedAt:  m.Terminated,
		ExtraMsgs:     int64(q.Stats().StopsSent),
		SettledWithin: settled,
	}
	table(w, []string{"run", "node-query evaluations", "termination msgs sent"}, [][]string{
		{"to completion", fmt.Sprintf("%d", out.FullEvals), "0"},
		{"cancelled mid-flight", fmt.Sprintf("%d", out.CancelEvals), fmt.Sprintf("%d (to sites behind the clone)", out.ExtraMsgs)},
	})
	fmt.Fprintf(w, "\nafter cancel the in-flight clone died at its next result dispatch "+
		"(%d server(s) had their first report refused); the web went quiet within ~%v.\n",
		out.TerminatedAt, settled.Round(time.Millisecond))
	fmt.Fprintln(w, "no message had to catch the clone — the CHT-before-forward ordering guarantees")
	fmt.Fprintln(w, "a clone is only ever forwarded after a successful dispatch to the user-site,")
	fmt.Fprintln(w, "which no longer takes this query's reports, so cancellation cannot be outrun.")
	return out, nil
}
