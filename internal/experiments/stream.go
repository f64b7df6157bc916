package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"webdis/internal/core"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// StreamLatencyRow is one cell of the T15 first-row grid: how long until
// the first streamed row reaches the user-site versus full completion.
// Streamed counts rows pulled through Query.Rows concurrently with the
// run; it must equal Rows (streamed/buffered parity).
type StreamLatencyRow struct {
	Transport  string  `json:"transport"` // pipe | tcp
	Topology   string  `json:"topology"`  // campus | tree40
	Runs       int     `json:"runs"`
	FirstRowMs float64 `json:"first_row_ms"`
	CompleteMs float64 `json:"complete_ms"`
	Ratio      float64 `json:"ratio"` // first-row / completion (acceptance: < 0.5 on tree40)
	Rows       int     `json:"rows"`
	Streamed   int     `json:"streamed"`
}

// StreamBatchRow is one cell of the batching ablation on the fan-in
// power-law web: logical reports versus result frames actually sent.
type StreamBatchRow struct {
	Config        string  `json:"config"` // batch-off | batch-on
	Runs          int     `json:"runs"`
	ResultMsgs    int64   `json:"result_msgs"`    // frames dispatched (server metric delta)
	ResultReports int64   `json:"result_reports"` // logical reports carried (delta)
	WireFrames    int64   `json:"wire_frames"`    // "result"-kind frames observed on the fabric
	Coalescing    float64 `json:"coalescing"`     // reports per frame
	MeanMs        float64 `json:"mean_ms"`
	Rows          int     `json:"rows"`
}

// StreamStopRow is one cell of the early-termination ablation on the
// chain web: the same row budget enforced passively (Rows quota clips
// server-side, traversal runs on) versus actively (FirstN arms a StopMsg
// broadcast once the user-site has its rows).
type StreamStopRow struct {
	Config    string  `json:"config"` // quota-only | first-n
	Runs      int     `json:"runs"`
	Rows      int     `json:"rows"`
	Bytes     int64   `json:"bytes"`      // total fabric bytes, mean per run
	Messages  int64   `json:"messages"`   // total fabric messages, mean per run
	CloneMsgs int64   `json:"clone_msgs"` // "clone"-kind frames, mean per run
	StopsSent int     `json:"stops_sent"` // StopMsg broadcasts from the user-site, mean
	Stopped   int64   `json:"stopped"`    // clones terminated with a STOPPED fate, mean
	MeanMs    float64 `json:"mean_ms"`
}

// StreamOut is the T15 result.
type StreamOut struct {
	Latency []StreamLatencyRow `json:"latency"`
	Batch   []StreamBatchRow   `json:"batch"`
	Stop    []StreamStopRow    `json:"stop"`

	// TreeFirstRowRatio is the worst (largest) pipe/tcp tree40 ratio —
	// the headline streaming number (acceptance: < 0.5).
	TreeFirstRowRatio float64 `json:"tree40_first_row_ratio"`
	// BatchReduction is result-frame count off/on on the fan-in web
	// (acceptance: >= 2).
	BatchReduction float64 `json:"batch_msg_reduction"`
	// StopBytesSaved is 1 - bytes(first-n)/bytes(quota-only) on the
	// chain web (acceptance: > 0).
	StopBytesSaved float64 `json:"stop_bytes_saved_frac"`
}

// streamFanInWeb builds the batching segment's topology: a power-law web
// whose hub pages receive clone messages from many distinct parent
// sites. Per-site clone batching (Section 3.2) already coalesces
// *outgoing* clones, so a tree — one parent per site — produces little
// result traffic to merge; fan-in is where result batching pays, because
// every duplicate arrival still owes the user-site a CHT retirement
// report.
func streamFanInWeb() *webgraph.Web {
	return webgraph.PowerLaw(webgraph.PowerLawOpts{
		Pages: 240, PagesPerSite: 4, OutLinks: 4,
		MarkerFrac: 0.3, FillerWords: 60, Seed: 6,
	})
}

// streamChainWeb builds the early-termination segment's topology: a
// linear chain of single-page sites, every page carrying the marker, so
// each hop yields exactly one result row and the traversal frontier is
// always one clone deep. Documents are padded heavy enough that per-site
// processing dominates the user-site's stop round-trip — the regime
// where an active stop can outrun the frontier (with weightless pages
// the clone always wins the race and FirstN degenerates to the quota).
func streamChainWeb(sites, fillerWords int) *webgraph.Web {
	var filler strings.Builder
	for i := 0; i < fillerWords; i++ {
		fmt.Fprintf(&filler, " w%d", i)
	}
	w := webgraph.NewWeb()
	urls := make([]string, sites)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://s%d.chain.example/p.html", i)
	}
	for i := 0; i < sites; i++ {
		p := w.NewPage(urls[i], fmt.Sprintf("Stream chain %d", i))
		p.AddText("This page holds the token " + webgraph.Marker + "." + filler.String())
		if i+1 < sites {
			p.AddLink(urls[i+1], "next")
		}
	}
	return w
}

// Stream runs T15: streaming result delivery measured three ways —
// first-row versus completion latency, result-frame batching on a fan-in
// web, and active early termination versus the passive row quota —
// writing the grid to BENCH_PR5.json.
func Stream(w io.Writer) (*StreamOut, error) {
	return streamRun(w, 7, "BENCH_PR5.json")
}

// streamRun is the parameterized body; outPath == "" skips the JSON
// artifact (the shape test's mode).
func streamRun(w io.Writer, runs int, outPath string) (*StreamOut, error) {
	out := &StreamOut{}

	// Segment 1: first-row vs completion latency, campus and tree40 over
	// pipe and tcp, rows consumed through Query.Rows while the query runs.
	for _, transport := range []string{"pipe", "tcp"} {
		for _, wl := range perfWorkloads() {
			web := wl.Web()
			row, err := streamLatencyCell(transport, wl.Name, web, wl.Query(web), runs)
			if err != nil {
				return nil, fmt.Errorf("stream latency %s/%s: %w", transport, wl.Name, err)
			}
			out.Latency = append(out.Latency, *row)
			if wl.Name == "tree40" && row.Ratio > out.TreeFirstRowRatio {
				out.TreeFirstRowRatio = row.Ratio
			}
		}
	}

	// Segment 2: result-frame batching on the fan-in web, pipe fabric
	// (frame counts need the instrumented transport).
	batchConfigs := []struct {
		Name  string
		Batch server.BatchOptions
	}{
		{"batch-off", server.BatchOptions{}},
		{"batch-on", server.BatchOptions{MaxRows: 128, MaxAge: 5 * time.Millisecond}},
	}
	fanWeb := streamFanInWeb()
	fanSrc := fmt.Sprintf(
		`select d.url from document d such that %q N|(G*4) d where d.text contains %q`,
		fanWeb.First(), webgraph.Marker)
	for _, bc := range batchConfigs {
		opts := server.Options{CacheDBs: true, Workers: 4, ResultBatch: bc.Batch}
		row, err := streamBatchCell(bc.Name, fanWeb, opts, fanSrc, runs)
		if err != nil {
			return nil, fmt.Errorf("stream batch %s: %w", bc.Name, err)
		}
		out.Batch = append(out.Batch, *row)
	}
	if off, on := out.Batch[0], out.Batch[1]; on.ResultMsgs > 0 {
		out.BatchReduction = float64(off.ResultMsgs) / float64(on.ResultMsgs)
	}

	// Segment 3: active early termination vs the passive quota on a
	// 40-site chain, pipe fabric, fresh deployment per run (warm DB
	// caches would erase the per-site work the stop is racing).
	const chainSites, firstN, stopRuns = 40, 5, 3
	chainWeb := streamChainWeb(chainSites, 2500)
	chainSrc := fmt.Sprintf(
		`select d.url from document d such that %q N|(G*%d) d where d.text contains %q`,
		chainWeb.First(), chainSites-1, webgraph.Marker)
	stopConfigs := []struct {
		Name   string
		Budget wire.Budget
	}{
		{"quota-only", wire.Budget{Rows: firstN}},
		{"first-n", wire.Budget{FirstN: firstN}},
	}
	for _, sc := range stopConfigs {
		row, err := streamStopCell(sc.Name, chainWeb, chainSrc, sc.Budget, stopRuns)
		if err != nil {
			return nil, fmt.Errorf("stream stop %s: %w", sc.Name, err)
		}
		out.Stop = append(out.Stop, *row)
	}
	if quota, first := out.Stop[0], out.Stop[1]; quota.Bytes > 0 {
		out.StopBytesSaved = 1 - float64(first.Bytes)/float64(quota.Bytes)
	}

	fmt.Fprintln(w, "T15: streaming result delivery — first-row latency, frame batching, active early termination")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "first-row vs completion (rows consumed through Query.Rows during the run):")
	var rows [][]string
	for _, r := range out.Latency {
		rows = append(rows, []string{
			r.Transport, r.Topology,
			fmt.Sprintf("%.2f", r.FirstRowMs), fmt.Sprintf("%.2f", r.CompleteMs),
			fmt.Sprintf("%.2f", r.Ratio),
			fmt.Sprintf("%d", r.Rows), fmt.Sprintf("%d", r.Streamed),
		})
	}
	table(w, []string{"transport", "topology", "first-row ms", "complete ms", "ratio", "rows", "streamed"}, rows)

	fmt.Fprintln(w, "\nresult-frame batching on the fan-in power-law web (pipe):")
	rows = rows[:0]
	for _, r := range out.Batch {
		rows = append(rows, []string{
			r.Config,
			fmt.Sprintf("%d", r.ResultMsgs), fmt.Sprintf("%d", r.ResultReports),
			fmt.Sprintf("%d", r.WireFrames),
			fmt.Sprintf("%.1f", r.Coalescing), fmt.Sprintf("%.2f", r.MeanMs),
			fmt.Sprintf("%d", r.Rows),
		})
	}
	table(w, []string{"config", "result msgs", "reports", "wire frames", "reports/frame", "mean ms", "rows"}, rows)

	fmt.Fprintf(w, "\nfirst-%d on the %d-site chain: active stop vs passive row quota (pipe):\n", firstN, chainSites)
	rows = rows[:0]
	for _, r := range out.Stop {
		rows = append(rows, []string{
			r.Config, fmt.Sprintf("%d", r.Rows),
			fmtBytes(r.Bytes), fmt.Sprintf("%d", r.Messages), fmt.Sprintf("%d", r.CloneMsgs),
			fmt.Sprintf("%d", r.StopsSent), fmt.Sprintf("%d", r.Stopped),
			fmt.Sprintf("%.2f", r.MeanMs),
		})
	}
	table(w, []string{"config", "rows", "bytes", "msgs", "clones", "stops", "stopped", "mean ms"}, rows)

	fmt.Fprintf(w, "\nheadlines: tree40 first row at %.2fx of completion; batching cuts result frames %.1fx; FirstN saves %.0f%% of bytes vs the quota\n",
		out.TreeFirstRowRatio, out.BatchReduction, 100*out.StopBytesSaved)

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

// streamLatencyCell measures first-row and completion latency on one
// shared deployment (2 warmups, then timed repeats), consuming rows via
// the pull iterator concurrently and asserting streamed/buffered parity.
func streamLatencyCell(transport, topology string, web *webgraph.Web, src string, runs int) (*StreamLatencyRow, error) {
	cfg := core.Config{Web: web, Exec: core.ExecConfig{Server: server.Options{CacheDBs: true, Workers: 4}, NoDocService: true}}
	if transport == "tcp" {
		cfg.Exec.Transport = netsim.NewTCP()
	}
	d, err := core.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	row := &StreamLatencyRow{Transport: transport, Topology: topology, Runs: runs}
	runOne := func() (first, complete time.Duration, err error) {
		q, err := d.SubmitDISQL(src)
		if err != nil {
			return 0, 0, err
		}
		streamed := make(chan int, 1)
		go func() {
			n := 0
			for range q.Rows() {
				n++
			}
			streamed <- n
		}()
		if err := q.Wait(30 * time.Second); err != nil {
			return 0, 0, err
		}
		n := <-streamed
		nrows := 0
		for _, t := range q.Results() {
			nrows += len(t.Rows)
		}
		if n != nrows {
			return 0, 0, fmt.Errorf("parity: streamed %d rows, buffered %d", n, nrows)
		}
		if nrows == 0 {
			return 0, 0, fmt.Errorf("query delivered no rows")
		}
		row.Rows, row.Streamed = nrows, n
		st := q.Stats()
		return st.FirstRow, st.Duration, nil
	}

	for i := 0; i < 2; i++ {
		if _, _, err := runOne(); err != nil {
			return nil, err
		}
	}
	var firsts, completes []time.Duration
	for i := 0; i < runs; i++ {
		f, c, err := runOne()
		if err != nil {
			return nil, err
		}
		firsts, completes = append(firsts, f), append(completes, c)
	}
	row.FirstRowMs = meanMs(firsts)
	row.CompleteMs = meanMs(completes)
	if row.CompleteMs > 0 {
		row.Ratio = row.FirstRowMs / row.CompleteMs
	}
	return row, nil
}

// streamBatchCell measures one batching configuration on the pipe
// fabric: metric and frame-count deltas over the measured runs.
func streamBatchCell(config string, web *webgraph.Web, opts server.Options, src string, runs int) (*StreamBatchRow, error) {
	d, err := core.NewDeployment(core.Config{Web: web, Exec: core.ExecConfig{Server: opts, NoDocService: true}})
	if err != nil {
		return nil, err
	}
	defer d.Close()

	row := &StreamBatchRow{Config: config, Runs: runs}
	runOne := func() (time.Duration, error) {
		start := time.Now()
		q, err := d.Run(src, 30*time.Second)
		if err != nil {
			return 0, err
		}
		el := time.Since(start)
		nrows := 0
		for _, t := range q.Results() {
			nrows += len(t.Rows)
		}
		if nrows == 0 {
			return 0, fmt.Errorf("query delivered no rows")
		}
		row.Rows = nrows
		return el, nil
	}

	if _, err := runOne(); err != nil {
		return nil, err
	}
	mBefore := d.Metrics().Snapshot()
	nBefore := d.Network().Stats().Snapshot().Total()
	var durs []time.Duration
	for i := 0; i < runs; i++ {
		el, err := runOne()
		if err != nil {
			return nil, err
		}
		durs = append(durs, el)
	}
	mAfter := d.Metrics().Snapshot()
	nAfter := d.Network().Stats().Snapshot().Total()

	row.ResultMsgs = mAfter.ResultMsgs - mBefore.ResultMsgs
	row.ResultReports = mAfter.ResultReports - mBefore.ResultReports
	row.WireFrames = nAfter.ByKind["result"] - nBefore.ByKind["result"]
	if row.ResultMsgs > 0 {
		row.Coalescing = float64(row.ResultReports) / float64(row.ResultMsgs)
	}
	row.MeanMs = meanMs(durs)
	return row, nil
}

// streamStopCell measures one termination policy: a fresh deployment per
// run (cold per-site databases keep the frontier slower than the stop
// round-trip), whole-fabric byte and message counts per run, averaged.
func streamStopCell(config string, web *webgraph.Web, src string, b wire.Budget, runs int) (*StreamStopRow, error) {
	row := &StreamStopRow{Config: config, Runs: runs}
	var durs []time.Duration
	for i := 0; i < runs; i++ {
		d, err := core.NewDeployment(core.Config{Web: web, Exec: core.ExecConfig{NoDocService: true}})
		if err != nil {
			return nil, err
		}
		wq, err := disql.Parse(src)
		if err != nil {
			d.Close()
			return nil, err
		}
		start := time.Now()
		q, err := d.SubmitBudget(wq, b)
		if err != nil {
			d.Close()
			return nil, err
		}
		if err := q.Wait(30 * time.Second); err != nil && q.Err() == nil {
			d.Close()
			return nil, err
		}
		durs = append(durs, time.Since(start))
		nrows := 0
		for _, t := range q.Results() {
			nrows += len(t.Rows)
		}
		row.Rows = nrows
		st := q.Stats()
		net := d.Network().Stats().Snapshot().Total()
		met := d.Metrics().Snapshot()
		row.Bytes += net.Bytes
		row.Messages += net.Messages
		row.CloneMsgs += net.ByKind["clone"]
		row.StopsSent += st.StopsSent
		row.Stopped += met.Stopped
		d.Close()
	}
	n := int64(runs)
	row.Bytes /= n
	row.Messages /= n
	row.CloneMsgs /= n
	row.StopsSent /= runs
	row.Stopped /= n
	row.MeanMs = meanMs(durs)
	return row, nil
}

// meanMs is the mean of durs in milliseconds.
func meanMs(durs []time.Duration) float64 {
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i] < sorted[k] })
	var total time.Duration
	for _, el := range sorted {
		total += el
	}
	if len(sorted) == 0 {
		return 0
	}
	return float64(total.Microseconds()) / float64(len(sorted)) / 1e3
}
