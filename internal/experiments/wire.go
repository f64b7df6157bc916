package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"webdis/internal/client"
	"webdis/internal/core"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// wireConc is how many queries each measured run overlaps.
const wireConc = 4

// WireRow is one cell of the T18 codec grid: one wire configuration on
// one topology over one transport, steady-state repeated queries.
type WireRow struct {
	Transport string `json:"transport"` // pipe (simulated fabric) | tcp (real sockets)
	Topology  string `json:"topology"`  // campus | tree40
	Config    string `json:"config"`
	Runs      int    `json:"runs"`

	MeanMs     float64 `json:"mean_ms"`
	Messages   int64   `json:"messages"`     // wire messages over the measured runs
	MsgsPerSec float64 `json:"msgs_per_sec"` // the headline axis
	// BytesPerMsg is transport bytes over wire messages for the measured
	// runs: what the codec changes, read off counters rather than a clock.
	BytesPerMsg float64 `json:"bytes_per_msg"`
	Rows        int     `json:"rows"` // result rows per query (identical down a column)

	// Batching/tuning activity over the measured runs.
	ResultMsgs    int64 `json:"result_msgs"`
	ResultReports int64 `json:"result_reports"`
	TunesSent     int   `json:"tunes_sent"`
	BatchTunes    int64 `json:"batch_tunes"`
}

// WireOut is the T18 result.
type WireOut struct {
	Rows []WireRow `json:"rows"`
}

// wireConfigs lists the measured wire configurations: the binary codec
// alone ("v2"), with PR 5's server-side result batching ("v2-batch"),
// and with the client's TUNE feedback loop on top ("v2-adaptive").
func wireConfigs() []struct {
	Name     string
	Opts     server.Options
	Adaptive bool
} {
	base := server.Options{CacheDBs: true, Workers: 4}
	batch := base
	batch.ResultBatch = server.BatchOptions{MaxRows: 128, MaxAge: 2 * time.Millisecond}
	return []struct {
		Name     string
		Opts     server.Options
		Adaptive bool
	}{
		{"v2", base, false},
		{"v2-batch", batch, false},
		{"v2-adaptive", batch, true},
	}
}

// wireTreeWeb builds the wire-heavy tree40 workload: ~40 sites holding 9
// small pages each, every page a marker hit. Small documents keep
// evaluation cheap and result tables wide (one row per page), so the
// per-message serialization cost — the thing the codec changes —
// dominates the per-hop budget instead of parsing or matching.
func wireTreeWeb() *webgraph.Web {
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 5, PagesPerSite: 9,
		MarkerFrac: 1.0, FillerWords: 8, Seed: 7,
	})
}

func wireTreeQuery(w *webgraph.Web) string {
	return fmt.Sprintf(
		`select d.url, d.title from document d such that %q N|(L|G)*5 d where d.text contains %q`,
		w.First(), webgraph.Marker)
}

func wireWorkloads() []perfWorkload {
	return []perfWorkload{
		{"campus", webgraph.Campus, func(*webgraph.Web) string { return webgraph.CampusDISQL }},
		{"tree40", wireTreeWeb, wireTreeQuery},
	}
}

// Wire runs T18: the binary codec's message throughput on the campus and
// wire-heavy tree topologies over pipe and TCP, alone and with batching
// and adaptive batching; writes the grid to BENCH_PR8.json. Identical
// answers across every configuration of a column are enforced, not just
// reported.
func Wire(w io.Writer) (*WireOut, error) {
	return wireRun(w, 8, "BENCH_PR8.json")
}

// wireRun is the parameterized body; outPath == "" skips the JSON
// artifact (the shape test's mode).
func wireRun(w io.Writer, runs int, outPath string) (*WireOut, error) {
	out := &WireOut{}
	answers := make(map[string]string) // transport/topology -> canonical answer
	for _, transport := range []string{"pipe", "tcp"} {
		for _, wl := range wireWorkloads() {
			web := wl.Web()
			src := wl.Query(web)
			for _, cfg := range wireConfigs() {
				row, answer, err := wireCell(transport, wl.Name, cfg.Name, web, cfg.Opts, cfg.Adaptive, src, runs)
				if err != nil {
					return nil, fmt.Errorf("wire %s/%s/%s: %w", transport, wl.Name, cfg.Name, err)
				}
				key := transport + "/" + wl.Name
				if prev, ok := answers[key]; !ok {
					answers[key] = answer
				} else if prev != answer {
					return nil, fmt.Errorf("wire %s: config %s changed the answer", key, cfg.Name)
				}
				out.Rows = append(out.Rows, *row)
			}
		}
	}

	fmt.Fprintln(w, "T18: wire format v2 — binary codec message throughput, with batching")
	fmt.Fprintln(w, "(per cell: one shared deployment, 2 warmup queries, then", runs, "measured;")
	fmt.Fprintln(w, " identical answers across every configuration of a column are enforced)")
	fmt.Fprintln(w)
	rows := make([][]string, 0, len(out.Rows))
	for _, r := range out.Rows {
		rows = append(rows, []string{
			r.Transport, r.Topology, r.Config,
			fmt.Sprintf("%.2f", r.MeanMs),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.0f", r.MsgsPerSec),
			fmt.Sprintf("%d", r.Rows),
			fmt.Sprintf("%d/%d", r.ResultReports, r.ResultMsgs),
			fmt.Sprintf("%d/%d", r.TunesSent, r.BatchTunes),
		})
	}
	table(w, []string{"transport", "topology", "config", "mean ms", "msgs", "msgs/s", "rows", "reports/frames", "tunes s/a"}, rows)

	if outPath != "" {
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "machine-readable grid written to %s\n", outPath)
	}
	return out, nil
}

// wireCell measures one configuration on one long-lived deployment
// (pooled connections with warm codec sessions — the steady state the
// intern tables target): two warmup queries, then timed repeats. It
// returns the cell and the canonical answer for cross-config comparison.
func wireCell(transport, topology, config string, web *webgraph.Web, opts server.Options, adaptive bool, src string, runs int) (*WireRow, string, error) {
	cfg := core.Config{Web: web, Exec: core.ExecConfig{Server: opts, NoDocService: true, AdaptiveBatch: adaptive}}
	var traffic *netsim.Stats
	if transport == "tcp" {
		tcp := netsim.NewTCP()
		cfg.Exec.Transport, traffic = tcp, tcp.Stats()
	}
	d, err := core.NewDeployment(cfg)
	if err != nil {
		return nil, "", err
	}
	defer d.Close()
	if traffic == nil {
		traffic = d.Network().Stats()
	}

	nrows, tunes := 0, 0
	answer := ""
	// Each measured run is wireConc concurrent queries: overlapping the
	// depth-bound critical paths keeps the workers busy, so the measured
	// message rate reflects per-message processing cost — the thing the
	// codec changes — rather than chain latency.
	runOne := func() (time.Duration, error) {
		start := time.Now()
		queries := make([]*client.Query, wireConc)
		errs := make([]error, wireConc)
		var wg sync.WaitGroup
		for i := 0; i < wireConc; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				queries[i], errs[i] = d.Run(src, 30*time.Second)
			}(i)
		}
		wg.Wait()
		el := time.Since(start)
		for i, err := range errs {
			if err != nil {
				return 0, fmt.Errorf("concurrent query %d: %w", i, err)
			}
		}
		for i, q := range queries {
			var flat []string
			nrows = 0
			for _, t := range q.Results() {
				nrows += len(t.Rows)
				for _, r := range t.Rows {
					flat = append(flat, fmt.Sprintf("%d:%q", t.Stage, r))
				}
			}
			if nrows == 0 {
				return 0, fmt.Errorf("query delivered no rows")
			}
			sort.Strings(flat)
			got := strings.Join(flat, "\n")
			if i > 0 && got != answer {
				return 0, fmt.Errorf("concurrent queries disagree")
			}
			answer = got
			tunes += q.Stats().TunesSent
		}
		return el, nil
	}

	for i := 0; i < 2; i++ {
		if _, err := runOne(); err != nil {
			return nil, "", err
		}
	}
	before, bytesBefore := d.Metrics().Snapshot(), traffic.Snapshot().Total().Bytes
	tunes = 0
	var total time.Duration
	for i := 0; i < runs; i++ {
		el, err := runOne()
		if err != nil {
			return nil, "", err
		}
		total += el
	}
	after := d.Metrics().Snapshot()

	msgs := (after.ClonesForwarded - before.ClonesForwarded) +
		(after.ResultMsgs - before.ResultMsgs) +
		(after.Bounced - before.Bounced) +
		(after.Shed - before.Shed)
	row := &WireRow{
		Transport: transport, Topology: topology, Config: config, Runs: runs,
		MeanMs:        float64(total.Microseconds()) / float64(runs) / 1e3,
		Messages:      msgs,
		MsgsPerSec:    float64(msgs) / total.Seconds(),
		BytesPerMsg:   float64(traffic.Snapshot().Total().Bytes-bytesBefore) / float64(msgs),
		Rows:          nrows,
		ResultMsgs:    after.ResultMsgs - before.ResultMsgs,
		ResultReports: after.ResultReports - before.ResultReports,
		TunesSent:     tunes,
		BatchTunes:    after.BatchTunes - before.BatchTunes,
	}
	return row, answer, nil
}
