package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"webdis/internal/client"
	"webdis/internal/core"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// PlannerRow is one cell of the T17 grid: one topology/query pair under
// one engine configuration, bytes and latency per query at steady state.
type PlannerRow struct {
	Topology string
	Query    string
	Config   string // naive, pushdown (ship-query pinned), planner (full)

	MeanMs   float64 // mean end-to-end latency per measured query
	Bytes    int64   // fabric bytes per query (all messages, both ways)
	Messages int64   // fabric messages per query
	Rows     int     // delivered result rows (identical across configs)

	RowsScanned        int64 // tuples read by operator-pipeline scans
	RowsEmitted        int64 // distinct rows emitted by evaluations
	PushdownHits       int64 // tables reduced in place by a plan fragment
	PushdownSavedBytes int64 // result-cell bytes the pushdown kept off the wire
	ShipDataEdges      int64 // traversal edges flipped to data shipping
	ShipDataBytes      int64 // document bytes fetched for those edges
}

// PlannerOut is the T17 result: the grid plus the headline byte ratios
// (naive bytes / full-planner bytes, > 1 means the planner saved wire).
type PlannerOut struct {
	Rows []PlannerRow

	CampusBytesRatio float64
	TreeBytesRatio   float64
}

// plannerCampusDISQL is the campus convener census: Example Query 2
// reshaped into the PR-7 grammar — one row per convener page, counting
// the matching documents by their text. The aggregate argument is the
// page text, so naive shipping hauls every matching lab page to the
// user-site as the count's base rows; the pushed-down partial aggregate
// folds them at the lab sites and ships one counter instead.
const plannerCampusDISQL = `
select d1.url, count(d1.text)
from document d0 such that "http://csa.iisc.ernet.in/index.html" L d0,
where d0.title contains "lab"
     document d1 such that d0 G·(L*1) d1,
     relinfon r such that r.delimiter = "hr",
where (r.text contains "convener")
group by d1.url
order by d1.url
`

// plannerTreeDISQL counts the marker pages of the 40-site tree by their
// document text — the paper's query-shipping motivation in one line:
// naive shipping hauls every matching page's full text (~5000 filler
// words) to the user-site just to count it; the pushed-down partial
// aggregate ships one counter per node instead.
func plannerTreeDISQL(root string) string {
	return fmt.Sprintf(
		`select count(d.text) from document d such that %q N|(G*3) d where d.text contains %q`,
		root, webgraph.Marker)
}

func plannerConfigs() []struct {
	Name string
	Opts server.Options
} {
	return []struct {
		Name string
		Opts server.Options
	}{
		{"naive", server.Options{}},
		{"pushdown", server.Options{Planner: server.PlannerOptions{Enabled: true, NoShipData: true}}},
		{"planner", server.Options{Planner: server.PlannerOptions{Enabled: true}}},
	}
}

// plannerCell measures one configuration: a fresh deployment with the
// per-site document hosts running (ship-data edges must be able to
// fetch), two warmup queries that also seed the statistics loop
// (result frames carry per-site stats to the client, the next root
// clone carries them back out), then `runs` measured queries.
func plannerCell(topology, qname, config string, web *webgraph.Web, opts server.Options, src string, runs int) (*PlannerRow, string, error) {
	d, err := core.NewDeployment(core.Config{Web: web, Exec: core.ExecConfig{Server: opts}})
	if err != nil {
		return nil, "", err
	}
	defer d.Close()

	var last *client.Query
	runOne := func() (time.Duration, error) {
		start := time.Now()
		q, err := d.Run(src, 30*time.Second)
		if err != nil {
			return 0, err
		}
		last = q
		return time.Since(start), nil
	}
	for i := 0; i < 2; i++ {
		if _, err := runOne(); err != nil {
			return nil, "", err
		}
	}
	// Cells run back to back in one process; collect the previous cell's
	// garbage (naive cells churn megabytes of shipped document text) so a
	// GC pause paid mid-measurement doesn't bill the wrong configuration.
	runtime.GC()
	netBefore := d.Network().Stats().Snapshot().Total()
	metBefore := d.Metrics().Snapshot()
	var total time.Duration
	for i := 0; i < runs; i++ {
		el, err := runOne()
		if err != nil {
			return nil, "", err
		}
		total += el
	}
	netAfter := d.Network().Stats().Snapshot().Total()
	metAfter := d.Metrics().Snapshot()

	nrows := 0
	var rendered strings.Builder
	for _, t := range last.Results() {
		nrows += len(t.Rows)
		fmt.Fprintf(&rendered, "stage %d %v %q\n", t.Stage, t.Cols, t.Rows)
	}
	row := &PlannerRow{
		Topology:           topology,
		Query:              qname,
		Config:             config,
		MeanMs:             float64(total.Milliseconds()) / float64(runs),
		Bytes:              (netAfter.Bytes - netBefore.Bytes) / int64(runs),
		Messages:           (netAfter.Messages - netBefore.Messages) / int64(runs),
		Rows:               nrows,
		RowsScanned:        (metAfter.RowsScanned - metBefore.RowsScanned) / int64(runs),
		RowsEmitted:        (metAfter.RowsEmitted - metBefore.RowsEmitted) / int64(runs),
		PushdownHits:       (metAfter.PushdownHits - metBefore.PushdownHits) / int64(runs),
		PushdownSavedBytes: (metAfter.PushdownBytesSaved - metBefore.PushdownBytesSaved) / int64(runs),
		ShipDataEdges:      (metAfter.ShipDataEdges - metBefore.ShipDataEdges) / int64(runs),
		ShipDataBytes:      (metAfter.ShipDataBytes - metBefore.ShipDataBytes) / int64(runs),
	}
	return row, rendered.String(), nil
}

// Planner runs T17: the cost-based distributed planner measured against
// naive shipping on the campus and 40-site-tree topologies, writing the
// grid to BENCH_PR7.json. Every cell must deliver the identical answer —
// the experiment fails loudly if any plan choice changes the results.
func Planner(w io.Writer) (*PlannerOut, error) {
	return plannerRun(w, 5, "BENCH_PR7.json")
}

func plannerRun(w io.Writer, runs int, outPath string) (*PlannerOut, error) {
	out := &PlannerOut{}
	workloads := []struct {
		Topology string
		Query    string
		Web      func() *webgraph.Web
		Src      func(web *webgraph.Web) string
	}{
		{"campus", "conveners/group-by", webgraph.Campus,
			func(*webgraph.Web) string { return plannerCampusDISQL }},
		{"tree40", "marker-count", perfTreeWeb,
			func(web *webgraph.Web) string { return plannerTreeDISQL(web.First()) }},
	}

	fmt.Fprintln(w, "T17: cost-based distributed planner — pushdown and edge decisions vs naive shipping")
	fmt.Fprintln(w, "(per cell: fresh deployment with document hosts, 2 warmups seed the statistics,", runs, "measured queries)")
	fmt.Fprintln(w)

	ratios := make(map[string]float64)
	for _, wl := range workloads {
		web := wl.Web()
		src := wl.Src(web)
		var naiveBytes, plannerBytes int64
		var baseline string
		for _, cfg := range plannerConfigs() {
			row, rendered, err := plannerCell(wl.Topology, wl.Query, cfg.Name, web, cfg.Opts, src, runs)
			if err != nil {
				return nil, fmt.Errorf("planner %s/%s: %w", wl.Topology, cfg.Name, err)
			}
			switch cfg.Name {
			case "naive":
				naiveBytes = row.Bytes
				baseline = rendered
			case "planner":
				plannerBytes = row.Bytes
			}
			if baseline != "" && rendered != baseline {
				return nil, fmt.Errorf("planner %s/%s changed the answer:\n%s\nvs naive:\n%s",
					wl.Topology, cfg.Name, rendered, baseline)
			}
			out.Rows = append(out.Rows, *row)
		}
		if plannerBytes > 0 {
			ratios[wl.Topology] = float64(naiveBytes) / float64(plannerBytes)
		}
	}
	out.CampusBytesRatio = ratios["campus"]
	out.TreeBytesRatio = ratios["tree40"]

	var rows [][]string
	for _, r := range out.Rows {
		rows = append(rows, []string{
			r.Topology, r.Config,
			fmt.Sprintf("%.2f", r.MeanMs),
			fmtBytes(r.Bytes), fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%d", r.Rows),
			fmt.Sprintf("%d/%d", r.RowsScanned, r.RowsEmitted),
			fmt.Sprintf("%d", r.PushdownHits), fmtBytes(r.PushdownSavedBytes),
			fmt.Sprintf("%d", r.ShipDataEdges), fmtBytes(r.ShipDataBytes),
		})
	}
	table(w, []string{"topology", "config", "mean ms", "bytes/q", "msgs/q", "rows", "scan/emit", "push", "saved", "sd edges", "sd bytes"}, rows)
	fmt.Fprintf(w, "\nheadline: planner-on moves %.2fx fewer bytes on campus, %.2fx fewer on tree40, same answers\n",
		out.CampusBytesRatio, out.TreeBytesRatio)

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
