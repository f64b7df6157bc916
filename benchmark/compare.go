package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json that -compare and the selftest
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one workload × metric comparison.
const (
	better     = "better"
	within     = "within-bound"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares one metric's old and new value under its bound. spread
// is the wider of the two sides' round-to-round spreads: a difference
// cannot be told from noise that is wider than the bound it is held to.
func judge(m specMetric, old, new, spread float64) string {
	change := ratio(new-old, old) // share of the old value; positive = grew
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case spread > m.Bound:
		return unresolved
	case change > m.Bound && (m.Name != "setup_s" || new-old > setupSlackS):
		return worse
	case change < -m.Bound:
		return better
	}
	return within
}

// spread is the quartile spread of the metric's per-round values — over
// the rounds its reported value was taken from. setup_s is the median of
// many set-ups, not one value per round, so its spread is scaled down to
// what it says about that median.
func (wr *workloadResult) spread(metric string) float64 {
	values := wr.RoundValues[metric]
	if metric == "setup_s" && len(values) > 0 {
		return quartileSpread(values) / math.Sqrt(float64(len(values)))
	}
	if timingMetrics[metric] && len(values) == wr.Rounds {
		kept := make([]float64, 0, len(wr.KeptRounds))
		for _, i := range wr.KeptRounds {
			kept = append(kept, values[i])
		}
		values = kept
	}
	return quartileSpread(values)
}

// compareFiles prints a verdict per workload × end-to-end metric and
// returns non-zero when any is worse (1) or the files cannot be compared
// (2).
func compareFiles(stdout, stderr io.Writer, specPath, oldPath, newPath string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	old, err := readResult(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cur, err := readResult(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if old.Mode != cur.Mode || old.Seed != cur.Seed {
		fmt.Fprintf(stderr, "benchmark: load shapes differ: %s is mode %s seed %d, %s is mode %s seed %d\n",
			oldPath, old.Mode, old.Seed, newPath, cur.Mode, cur.Seed)
		return 2
	}
	fmt.Fprintf(stdout, "old: %s (commit %s, %s, nproc %d)\nnew: %s (commit %s, %s, nproc %d)\n\n",
		oldPath, old.Env.Commit, old.Env.GoVersion, old.Env.NProc,
		newPath, cur.Env.Commit, cur.Env.GoVersion, cur.Env.NProc)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tbound\tspread\tverdict")
	counts := map[string]int{}
	for _, ow := range old.Workloads {
		var nw *workloadResult
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == ow.Name {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil {
			fmt.Fprintf(stderr, "benchmark: %s has no workload %s\n", newPath, ow.Name)
			return 2
		}
		if old.Mode != "seconds" && !slices.Equal(ow.OpsPerRound, nw.OpsPerRound) {
			fmt.Fprintf(stderr, "benchmark: load shapes differ on %s: ops per round %v against %v\n",
				ow.Name, ow.OpsPerRound, nw.OpsPerRound)
			return 2
		}
		for _, m := range spec.EndToEnd {
			o, n := ow.EndToEnd[m.Name].Value, nw.EndToEnd[m.Name].Value
			spread := max(ow.spread(m.Name), nw.spread(m.Name))
			v := judge(m, o, n, spread)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n", ow.Name, m.Name,
				formatValue(o), formatValue(n), 100*ratio(n-o, o), 100*m.Bound, 100*spread, v)
		}
		if nw.Failed > 0 {
			counts[worse]++
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t\t0\t\t%s\n", ow.Name, failedOpsFrac, ow.Failed, nw.Failed, worse)
		}
	}
	tw.Flush()
	fmt.Fprintf(stdout, "\n%d better, %d within-bound, %d worse, %d unresolved\n",
		counts[better], counts[within], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return 1
	}
	return 0
}
