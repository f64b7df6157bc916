package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

const specPath = "../BENCHMARK.json"

// TestSpecMatchesRegistry holds BENCHMARK.json and the metric and
// workload tables of this package in agreement.
func TestSpecMatchesRegistry(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	same := func(kind string, listed []specMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness reports %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			if got := listed[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func smokeRun(t *testing.T, seed int64, trace int) *benchResult {
	t.Helper()
	br, err := measure(options{seed: seed, smoke: true, trace: trace, outDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range br.Workloads {
		if wr.Failed != 0 {
			t.Fatalf("%s: %d of %d ops failed: %s", wr.Name, wr.Failed, wr.Attempted, wr.FirstFailure)
		}
	}
	return br
}

// smokeCounts runs one workload's set-up and smoke round and returns its
// end-to-end result and in-situ counts, without the probes and the traced
// pass that a per-layer run adds.
func smokeCounts(t *testing.T, spec *workloadSpec, seed int64) (workloadResult, *metricSet) {
	t.Helper()
	r := newRunner(spec, runConfig{Seed: seed, Smoke: true, SetupReps: 1, WarmOps: 1, OutDir: t.TempDir()})
	defer r.close()
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	if err := r.round(fixedOps(spec.SmokeOps)); err != nil {
		t.Fatal(err)
	}
	counts := newMetricSet(perLayer)
	r.inSitu(counts, r.totalUsage())
	return r.result(), counts
}

// TestSmoke runs every workload at smoke scale: every metric named in
// BENCHMARK.json must come out well-formed, the counts must repeat
// exactly under the same seed, and a second seed must keep every
// workload non-degenerate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	first := smokeRun(t, 7, -1)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, wr := range first.Workloads {
		check := func(kind string, listed []specMetric, got map[string]metricValue) {
			for _, m := range listed {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s missing", wr.Name, kind, m.Name)
				case !name.MatchString(m.Name):
					t.Errorf("%s: malformed metric name %q", wr.Name, m.Name)
				case v.Unit == "" || v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wr.Name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", wr.Name, m.Name, v.Value)
				}
			}
		}
		check("end_to_end", spec.EndToEnd, wr.EndToEnd)
		check("per_layer", spec.PerLayer, wr.PerLayer)
		for _, m := range spec.EndToEnd {
			if wr.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wr.Name, m.Name, wr.EndToEnd[m.Name].Value)
			}
		}
	}

	// Same seed, same counts — on the pipe fabric, where nothing depends
	// on socket timing. Queue depth, connection reuse and buffer-pool
	// misses depend on how goroutines interleave and are left out, and so
	// is the store workload, whose set-up alone takes a second.
	exact := []string{
		"server.clones_per_op", "server.result_msgs_per_op", "server.docs_parsed_per_op",
		"server.db_cache_hit_ratio", "server.evaluations_per_op", "server.dup_arrival_ratio",
		"plan.rows_scanned_per_op", "plan.rows_emitted_per_op",
		"watch.deltas_per_step",
	}
	for _, a := range first.Workloads {
		if a.Name == "fanout-tcp" || a.Name == "bigtree-store" {
			continue
		}
		b, counts := smokeCounts(t, findWorkload(a.Name), 7)
		for _, m := range []string{"wire_bytes_per_op", "wire_msgs_per_op"} {
			if a.EndToEnd[m].Value != b.EndToEnd[m].Value {
				t.Errorf("%s: %s differs between two runs of seed 7: %v against %v", a.Name, m, a.EndToEnd[m].Value, b.EndToEnd[m].Value)
			}
		}
		for _, m := range exact {
			if a.PerLayer[m].Value != counts.get(m) {
				t.Errorf("%s: %s differs between two runs of seed 7: %v against %v", a.Name, m, a.PerLayer[m].Value, counts.get(m))
			}
		}
	}

	// What the design promises of each workload, at any scale.
	byName := map[string]workloadResult{}
	for _, wr := range first.Workloads {
		byName[wr.Name] = wr
	}
	for _, w := range []string{"campus-warm", "bigtree-store"} {
		if v := byName[w].PerLayer["server.docs_parsed_per_op"].Value; v != 0 {
			t.Errorf("%s parses %v documents per op, want 0", w, v)
		}
	}
	if v := byName["bigtree-store"].PerLayer["store.pages_evicted_per_op"].Value; v <= 0 {
		t.Errorf("bigtree-store evicts %v pages per op: the working set fits its pools", v)
	}

	for _, spec := range workloads {
		if spec.WatchSteps > 0 {
			if wr, _ := smokeCounts(t, spec, 8); wr.Failed != 0 || wr.StandingMin < 5 {
				t.Errorf("seed 8: %s: %d failed steps, a mutation schedule ends with %d standing rows", spec.Name, wr.Failed, wr.StandingMin)
			}
			continue
		}
		r := newRunner(spec, runConfig{Seed: 8})
		if err := r.chooseWeb(); err != nil {
			t.Fatal(err)
		}
		w := r.newWeb()
		if rows, err := oracleRows(w, r.query(w)); err != nil || rows.N == 0 {
			t.Errorf("seed 8: %s answers with %d rows (%v)", spec.Name, rows.N, err)
		}
	}

	// A result compared with itself is within every bound.
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeJSON(path, first); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := compareFiles(&out, &errs, specPath, path, path); code != 0 {
		t.Errorf("comparing a result with itself exits %d: %s%s", code, out.String(), errs.String())
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		m                specMetric
		old, new, spread float64
		want             string
	}{
		{lower, 10, 10.5, 0.02, within},
		{lower, 10, 11.5, 0.02, worse},
		{lower, 10, 8.5, 0.02, better},
		{lower, 10, 11.5, 0.12, unresolved},
		{higher, 100, 85, 0.02, worse},
		{higher, 100, 115, 0.02, better},
		{higher, 100, 95, 0.02, within},
		{setup, 0.10, 0.20, 0, within}, // +100 % but only +0.1 s
		{setup, 1.0, 1.4, 0, worse},
	} {
		if got := judge(c.m, c.old, c.new, c.spread); got != c.want {
			t.Errorf("judge(%s, %v -> %v, spread %v) = %s, want %s", c.m.Name, c.old, c.new, c.spread, got, c.want)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got := quartileSpread([]float64{5, 1, 4, 2, 3}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}
