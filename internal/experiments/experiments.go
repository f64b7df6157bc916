// Package experiments regenerates the WEBDIS paper's figures and the
// quantitative experiments derived from its claims (see DESIGN.md's
// experiment index). Each experiment writes a human-readable report to an
// io.Writer and returns structured numbers so the benchmark suite can
// assert the expected shapes. The cmd/webdis-bench tool is a thin CLI
// over this package.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/core"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
)

// Experiment is one registered, runnable experiment.
type Experiment struct {
	Name  string
	Paper string // figure/section of the paper it reproduces
	Brief string
	Run   func(w io.Writer) error
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"f1", "Figure 1", "traversal roles: PureRouters, ServerRouters, dead ends, duplicate arrivals", func(w io.Writer) error { _, err := Figure1(w); return err }},
		{"f5", "Figure 5 / §3.1", "multiple visits to a node: log-table suppression of equivalent arrivals", func(w io.Writer) error { _, err := Figure5(w); return err }},
		{"campus", "Figures 7 & 8 / §5", "the sample campus execution: traversal states and result rows", func(w io.Writer) error { _, err := Campus(w); return err }},
		{"shipping", "§1, §3.2", "query shipping vs data shipping: bytes and messages vs web size", func(w io.Writer) error { _, err := Shipping(w); return err }},
		{"latency", "§1", "response time under per-hop latency: distributed vs centralized", func(w io.Writer) error { _, err := Latency(w); return err }},
		{"dedup", "§3.1 ablation", "node-query log table modes: off / exact / subsume / strong", func(w io.Writer) error { _, err := Dedup(w); return err }},
		{"batching", "§3.2 items 3-4 ablation", "per-site clone batching on/off: message counts", func(w io.Writer) error { _, err := Batching(w); return err }},
		{"cht", "§2.7", "CHT protocol cost: entries, bytes, completion detection latency", func(w io.Writer) error { _, err := CHT(w); return err }},
		{"migration", "§7.1", "hybrid migration path: participation fraction vs traffic and placement of work", func(w io.Writer) error { _, err := Migration(w); return err }},
		{"termination", "§2.8", "passive termination: work done after cancel, no anti-messages", func(w io.Writer) error { _, err := Termination(w); return err }},
		{"workers", "§4.4 ablation", "query-processor concurrency: the sequential design choice quantified", func(w io.Writer) error { _, err := Workers(w); return err }},
		{"rewrite", "§3.1.1", "star-bound subsumption and the query-multiple-rewrite rule", func(w io.Writer) error { _, err := Rewrite(w); return err }},
		{"anytime", "§2.6 / §7.1", "progressive results: partial answers accumulate before completion", func(w io.Writer) error { _, err := Anytime(w); return err }},
		{"deadends", "§2.5 semantics", "dead-end scope: paper's examples vs literal Figure-4 pseudocode", func(w io.Writer) error { _, err := DeadEnds(w); return err }},
		{"faults", "robustness / §2.8, §7.1", "fault injection: answer completeness under message loss, with retry, bounce and CHT reaping", func(w io.Writer) error { _, err := Faults(w); return err }},
		{"trace", "observability / Figure 7", "causal tracing: journey reconstruction, tracing overhead, fault localization", func(w io.Writer) error { _, err := Tracing(w); return err }},
		{"load", "scheduling / T14", "multi-query load: weighted-fair vs FIFO latency, admission-control shedding, wire-carried deadline expiry (writes BENCH_PR4.json)", func(w io.Writer) error { _, err := Load(w); return err }},
		{"stream", "streaming / T15", "streaming delivery: first-row latency, result-frame batching, active early termination via FirstN (writes BENCH_PR5.json)", func(w io.Writer) error { _, err := Stream(w); return err }},
		{"replicas", "robustness / T16", "replicated sites: hot-site throughput scaling 1/2/4, availability under mid-run replica kills (writes BENCH_PR6.json)", func(w io.Writer) error { _, err := Replicas(w); return err }},
		{"planner", "distribution / T17", "cost-based distributed planner: aggregate pushdown and ship-query-vs-ship-data edge decisions vs naive shipping, bytes and latency (writes BENCH_PR7.json)", func(w io.Writer) error { _, err := Planner(w); return err }},
		{"wire", "wire format / T18", "wire format v2: binary codec vs framed gob message throughput, with batching and adaptive-tuning variants (writes BENCH_PR8.json)", func(w io.Writer) error { _, err := Wire(w); return err }},
		{"store", "storage / T19", "persistent site store: slotted-page heap files + bounded buffer pool vs in-RAM databases — heap ceiling, p95, indexed contains (writes BENCH_PR9.json)", func(w io.Writer) error { _, err := Store(w); return err }},
		{"watch", "continuous queries / T20", "standing queries over a mutating web: incremental delta maintenance vs naive re-execution — bytes, epoch latency, full re-run oracle at every step (writes BENCH_PR10.json)", func(w io.Writer) error { _, err := Watch(w); return err }},
	}
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// runOut bundles everything one distributed run produces.
type runOut struct {
	query   *client.Query
	results []client.ResultTable
	qstats  client.Stats
	metrics server.Snapshot
	sites   map[string]server.Snapshot // per-site attribution of metrics
	net     netsim.Counters
	toUser  netsim.Counters       // traffic into the user-site's result collector
	trace   []trace.TraversalLine // Figure-7 sequence; runTraced only
	elapsed time.Duration
}

// runDistributed executes src over web with the given options and full
// instrumentation.
func runDistributed(web *webgraph.Web, netOpts netsim.Options, srvOpts server.Options, src string) (*runOut, error) {
	return runConfig(core.Config{Web: web, Net: netOpts, Exec: core.ExecConfig{Server: srvOpts, NoDocService: true}}, src)
}

// runTraced is runDistributed with causal tracing armed, so the run also
// yields its Figure-7 traversal. Span context rides on every message, so
// byte-measuring experiments use runDistributed instead.
func runTraced(web *webgraph.Web, srvOpts server.Options, src string) (*runOut, error) {
	return runConfig(core.Config{Web: web, Exec: core.ExecConfig{Server: srvOpts, NoDocService: true, Trace: true}}, src)
}

// runConfig builds the deployment, runs src to completion and collects the
// instrumentation.
func runConfig(cfg core.Config, src string) (*runOut, error) {
	d, err := core.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	start := time.Now()
	q, err := d.Run(src, 30*time.Second)
	if err != nil {
		return nil, err
	}
	sn := d.Network().Stats().Snapshot()
	out := &runOut{
		query:   q,
		results: q.Results(),
		qstats:  q.Stats(),
		metrics: d.Metrics().Snapshot(),
		sites:   d.SiteSnapshots(),
		net:     sn.Total(),
		toUser:  sn.To(q.ID().Site),
		elapsed: time.Since(start),
	}
	if d.Tracing() {
		out.trace = d.Journey(q).Traversal()
	}
	return out, nil
}

// centOut bundles a centralized run's instrumentation.
type centOut struct {
	res     *centralized.Result
	net     netsim.Counters
	elapsed time.Duration
}

// runCentralized executes src by data shipping over a fresh fabric
// hosting web's documents.
func runCentralized(web *webgraph.Web, netOpts netsim.Options, opts centralized.Options, src string) (*centOut, error) {
	w, err := disql.Parse(src)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDeployment(core.Config{Web: web, Net: netOpts})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	d.Network().Stats().Reset()
	start := time.Now()
	res, err := centralized.Run(d.Network(), "user/central", w, opts)
	if err != nil {
		return nil, err
	}
	return &centOut{
		res:     res,
		net:     d.Network().Stats().Snapshot().Total(),
		elapsed: time.Since(start),
	}, nil
}

// table prints an aligned text table.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// siteTable prints one row per site with the scheduler- and
// planner-facing counters: where work queued, where admission control
// engaged, what was shed or budget-terminated, and what the operator
// pipeline scanned vs emitted (with pushdown hits and the bytes they
// kept off the wire). Sites with no activity at all are elided.
func siteTable(w io.Writer, title string, sites map[string]server.Snapshot) {
	names := make([]string, 0, len(sites))
	for site := range sites {
		names = append(names, site)
	}
	sort.Strings(names)
	var rows [][]string
	for _, site := range names {
		s := sites[site]
		if s.Evaluations+s.LocalClones+s.ClonesForwarded+s.QueueDepth+
			s.QueueHighWater+s.Shed+s.BudgetExpired+s.RowsScanned == 0 {
			continue
		}
		rows = append(rows, []string{
			site,
			fmt.Sprint(s.Evaluations),
			fmt.Sprint(s.ClonesForwarded),
			fmt.Sprint(s.LocalClones),
			fmt.Sprint(s.QueueDepth),
			fmt.Sprint(s.QueueHighWater),
			fmt.Sprint(s.Shed),
			fmt.Sprint(s.BudgetExpired),
			fmt.Sprintf("%d/%d", s.RowsScanned, s.RowsEmitted),
			fmt.Sprint(s.PushdownHits),
			fmt.Sprint(s.PushdownBytesSaved),
		})
	}
	fmt.Fprintln(w, title)
	table(w, []string{"site", "evals", "fwd", "local", "qdepth", "qhigh", "shed", "expired", "scan/emit", "push", "saved"}, rows)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// eventsByNode groups non-virtual traversal lines per node, preserving order.
func eventsByNode(lines []trace.TraversalLine) map[string][]trace.TraversalLine {
	out := make(map[string][]trace.TraversalLine)
	for _, l := range lines {
		if l.Detail == "virtual" {
			continue
		}
		out[l.Node] = append(out[l.Node], l)
	}
	return out
}

// netZero is the default instant fabric.
func netZero() netsim.Options { return netsim.Options{} }

// perfWorkload is one (web, query) pair of the steady-state grids (T15,
// T18, T19).
type perfWorkload struct {
	Name  string
	Web   func() *webgraph.Web
	Query func(w *webgraph.Web) string
}

func perfWorkloads() []perfWorkload {
	return []perfWorkload{
		{"campus", webgraph.Campus, func(*webgraph.Web) string { return webgraph.CampusDISQL }},
		{"tree40", perfTreeWeb,
			func(w *webgraph.Web) string { return faultsQuery(w.First()) }},
	}
}

// perfTreeWeb builds the 40-site tree used by the tree40 cells. Same
// shape as the fault experiments' tree (fanout 3, depth 3, one page per
// site so every tree edge stays a Global link) but with realistically
// sized documents — ~5000 words each instead of 30 — so the cost paid per
// clone arrival (re-parsing and re-indexing the site's documents to
// rebuild its database) is representative rather than degenerate.
func perfTreeWeb() *webgraph.Web {
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 3, PagesPerSite: 1,
		MarkerFrac: 0.6, FillerWords: 5000, Seed: 7,
	})
}
