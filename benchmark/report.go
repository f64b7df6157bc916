package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
)

const resultSchema = "webdis-benchmark/1"

// benchResult is the layout of a result file (-o, baseline.json). It
// carries everything needed to refuse a comparison across different load
// shapes: environment, seed, op counts and wall time per workload.
type benchResult struct {
	Schema    string           `json:"schema"`
	Mode      string           `json:"mode"` // full | smoke | seconds
	Seed      int64            `json:"seed"`
	Env       envRecord        `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

type workloadResult struct {
	Name         string  `json:"name"`
	Why          string  `json:"why"`
	Pages        int     `json:"pages"`
	Sites        int     `json:"sites"`
	RowsPerOp    int     `json:"rows_per_op"`       // the oracle answer's size (0 for the standing query)
	StandingMin  int     `json:"standing_rows_min"` // smallest standing set a mutation schedule ended with
	Rounds       int     `json:"rounds"`
	KeptRounds   []int   `json:"kept_rounds"` // rounds the timing metrics pool (0-based)
	OpsPerRound  []int   `json:"ops_per_round"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	FirstFailure string  `json:"first_failure,omitempty"`
	Samples      int     `json:"latency_samples"`
	WallS        float64 `json:"wall_s"`

	EndToEnd map[string]metricValue `json:"end_to_end"`
	// RoundValues holds each round's own value of the end-to-end metrics
	// that have one (for setup_s, each set-up's); -compare calls a metric
	// unresolved when their spread exceeds its bound.
	RoundValues map[string][]float64   `json:"round_values"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
}

func currentEnv() envRecord {
	return envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
	}
}

// commit is the build's VCS revision when the toolchain stamped one, else
// what git says about the working directory, else "unknown" (the driver's
// checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// keptRounds returns the indices of the rounds the timing metrics are
// taken from: ranked by throughput, the slowest two of five are dropped.
// Whatever else runs on the machine only ever slows a round down, so the
// fast rounds are the undisturbed ones; on a shared two-core box whole
// seconds run 20-40 % slow, and a median over all rounds inherits that.
func (r *runner) keptRounds() []int {
	idx := make([]int, len(r.rounds))
	for i := range idx {
		idx[i] = i
	}
	rate := func(i int) float64 { u := r.rounds[i].use; return ratio(float64(u.Ops), u.Busy.Seconds()) }
	sort.SliceStable(idx, func(a, b int) bool { return rate(idx[a]) > rate(idx[b]) })
	kept := idx[:len(idx)-2*len(idx)/5]
	sort.Ints(kept)
	return kept
}

// result assembles the end-to-end metrics of the rounds run so far.
func (r *runner) result() workloadResult {
	res := workloadResult{
		Name: r.spec.Name, Why: r.spec.Why,
		RowsPerOp: r.oracle.N, StandingMin: r.standingMin,
		Rounds:     len(r.rounds),
		KeptRounds: r.keptRounds(),
		Attempted:  r.attempted, Failed: r.failed, FirstFailure: r.firstFail,
		WallS:       r.wall.Seconds(),
		RoundValues: map[string][]float64{},
	}
	res.Pages, res.Sites = r.pages, r.sites

	per := func(name string, v float64) { res.RoundValues[name] = append(res.RoundValues[name], v) }
	for _, rs := range r.rounds {
		u := rs.use
		ops := float64(u.Ops)
		res.OpsPerRound = append(res.OpsPerRound, u.Ops)
		res.Samples += len(rs.lat)
		per("latency_p50_ms", percentile(rs.lat, 50))
		per("latency_p95_ms", percentile(rs.lat, 95))
		per("ops_per_s", ratio(ops, u.Busy.Seconds()))
		per("cpu_ms_per_op", ratio(ms(u.CPU), ops))
		per("wire_bytes_per_op", ratio(float64(u.Ctr[cWireBytes]), ops))
		per("wire_msgs_per_op", ratio(float64(u.Ctr[cWireMsgs]), ops))
		per("allocs_per_op", ratio(float64(u.Mallocs), ops))
		per("alloc_kb_per_op", ratio(float64(u.Alloc)/1024, ops))
	}
	res.RoundValues["setup_s"] = r.setupS
	// Timing comes from the kept rounds, pooled; counts from all rounds.
	var lat []float64
	var fast usage
	for _, i := range res.KeptRounds {
		lat = append(lat, r.rounds[i].lat...)
		fast.merge(r.rounds[i].use)
	}
	t := r.totalUsage()
	ops := float64(t.Ops)

	m := newMetricSet(endToEndReported)
	m.set("latency_p50_ms", percentile(lat, 50))
	m.set("latency_p95_ms", percentile(lat, 95))
	m.set("ops_per_s", ratio(float64(fast.Ops), fast.Busy.Seconds()))
	m.set("cpu_ms_per_op", ratio(ms(fast.CPU), float64(fast.Ops)))
	m.set("wire_bytes_per_op", ratio(float64(t.Ctr[cWireBytes]), ops))
	m.set("wire_msgs_per_op", ratio(float64(t.Ctr[cWireMsgs]), ops))
	m.set("allocs_per_op", ratio(float64(t.Mallocs), ops))
	m.set("alloc_kb_per_op", ratio(float64(t.Alloc)/1024, ops))
	m.set("heap_live_mib", r.heapLive)
	m.set("setup_s", median(r.setupS))
	m.set(failedOpsFrac, ratio(float64(r.failed), float64(r.attempted)))
	res.EndToEnd = m.complete()
	return res
}

// printResult writes every metric of every workload by name with its
// unit, one workload per column.
func printResult(w io.Writer, br *benchResult) {
	e := br.Env
	fmt.Fprintf(w, "webdis benchmark — mode %s, seed %d, %s, %s, nproc %d, GOMAXPROCS %d, commit %s\n\n",
		br.Mode, br.Seed, e.GoVersion, e.OSArch, e.NProc, e.GOMAXPROCS, e.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(label string, cell func(wr *workloadResult) string) {
		fmt.Fprint(tw, label)
		for i := range br.Workloads {
			fmt.Fprint(tw, "\t", cell(&br.Workloads[i]))
		}
		fmt.Fprintln(tw)
	}
	row("workload", func(wr *workloadResult) string { return wr.Name })
	row("web", func(wr *workloadResult) string { return fmt.Sprintf("%d pages/%d sites", wr.Pages, wr.Sites) })
	row("rows per op", func(wr *workloadResult) string { return fmt.Sprint(wr.RowsPerOp) })
	row("ops per round", func(wr *workloadResult) string { return fmt.Sprint(wr.OpsPerRound) })
	row("attempted/failed", func(wr *workloadResult) string { return fmt.Sprintf("%d/%d", wr.Attempted, wr.Failed) })
	row("latency samples", func(wr *workloadResult) string { return fmt.Sprint(wr.Samples) })
	row("wall s", func(wr *workloadResult) string { return fmt.Sprintf("%.1f", wr.WallS) })
	section := func(title string, defs []metricDef, pick func(wr *workloadResult) map[string]metricValue) {
		fmt.Fprintln(tw, "\n"+title)
		for _, d := range defs {
			row(fmt.Sprintf("  %s [%s]", d.Name, d.Unit), func(wr *workloadResult) string {
				v, ok := pick(wr)[d.Name]
				if !ok {
					return "-"
				}
				return formatValue(v.Value)
			})
		}
	}
	section("end to end", endToEndReported, func(wr *workloadResult) map[string]metricValue { return wr.EndToEnd })
	section("per layer", perLayer, func(wr *workloadResult) map[string]metricValue { return wr.PerLayer })
	tw.Flush()
	for _, wr := range br.Workloads {
		if wr.FirstFailure != "" {
			fmt.Fprintf(w, "\nFAILED %s: %s\n", wr.Name, wr.FirstFailure)
		}
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResult(path string) (*benchResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var br benchResult
	if err := json.Unmarshal(blob, &br); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if br.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, br.Schema, resultSchema)
	}
	return &br, nil
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
