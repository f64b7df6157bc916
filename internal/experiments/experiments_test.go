package experiments

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// The experiment suite doubles as the repository's shape regression tests:
// each test asserts the qualitative outcome the paper predicts.

func TestFigure1Shape(t *testing.T) {
	out, err := Figure1(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 3} {
		if out.Roles[i] != "PureRouter" {
			t.Errorf("node %d role = %q", i, out.Roles[i])
		}
	}
	if !strings.Contains(out.Roles[4], "q1") || !strings.Contains(out.Roles[4], "q2") {
		t.Errorf("node 4 must act twice: %q", out.Roles[4])
	}
	if !strings.Contains(out.Roles[7], "dead-end") {
		t.Errorf("node 7 must dead-end: %q", out.Roles[7])
	}
	if !strings.Contains(out.Roles[8], "duplicate-dropped") {
		t.Errorf("node 8 must drop a duplicate: %q", out.Roles[8])
	}
	if out.Q1Rows != 3 || out.Q2Rows != 2 || out.Drops != 1 {
		t.Errorf("q1=%d q2=%d drops=%d", out.Q1Rows, out.Q2Rows, out.Drops)
	}
}

func TestFigure5Shape(t *testing.T) {
	out, err := Figure5(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.ArrivalsAtX != 5 {
		t.Errorf("arrivals = %d, want 5 (a..e)", out.ArrivalsAtX)
	}
	if out.ProcessedAtX != 3 || out.DroppedAtX != 2 {
		t.Errorf("processed=%d dropped=%d, want 3 and 2", out.ProcessedAtX, out.DroppedAtX)
	}
	if out.EvalsNoDedup != 4 {
		t.Errorf("evals without dedup = %d, want 4 (b..e)", out.EvalsNoDedup)
	}
}

func TestCampusShape(t *testing.T) {
	out, err := Campus(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.Q1Rows != 1 || out.Q2Rows != 3 {
		t.Fatalf("q1=%d q2=%d", out.Q1Rows, out.Q2Rows)
	}
	for url, text := range out.Conveners {
		if !strings.Contains(strings.ToLower(text), "convener") {
			t.Errorf("%s: %q", url, text)
		}
	}
}

func TestShippingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	out, err := Shipping(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]ShippingRow{out.Selective, out.Gather} {
		for _, r := range rows {
			if r.BytesRatio <= 1.5 {
				t.Errorf("depth %d: reduction %.2f, want query shipping to win clearly", r.Depth, r.BytesRatio)
			}
		}
	}
	// The reduction must grow with document size.
	sizes := out.BySize
	if len(sizes) < 3 {
		t.Fatal("missing size sweep")
	}
	if !(sizes[len(sizes)-1].BytesRatio > 2*sizes[0].BytesRatio) {
		t.Errorf("size sweep ratios do not grow: first %.1f last %.1f",
			sizes[0].BytesRatio, sizes[len(sizes)-1].BytesRatio)
	}
}

func TestDedupShape(t *testing.T) {
	out, err := Dedup(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("rows = %d", len(out))
	}
	off, exact, subsume, strong := out[0], out[1], out[2], out[3]
	// Identical answers in every mode.
	for _, r := range out {
		if r.Rows != off.Rows {
			t.Errorf("mode %s rows = %d, want %d", r.Mode, r.Rows, off.Rows)
		}
	}
	// Monotonic work reduction.
	if !(off.Evals > 2*exact.Evals) {
		t.Errorf("exact should cut evaluations sharply: off=%d exact=%d", off.Evals, exact.Evals)
	}
	if !(exact.Evals > subsume.Evals) {
		t.Errorf("subsumption should beat exact: exact=%d subsume=%d", exact.Evals, subsume.Evals)
	}
	if strong.Evals > subsume.Evals {
		t.Errorf("strong should not do more work than subsume: %d vs %d", strong.Evals, subsume.Evals)
	}
	if subsume.Drops == 0 {
		t.Error("subsumption mode should drop covered arrivals")
	}
	// Rewrite counts are timing-dependent here (a superset arrival must
	// race in after a smaller bound was logged); their determinism is
	// covered by the T7 replay and the log-table unit tests.
}

func TestBatchingShape(t *testing.T) {
	out, err := Batching(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	batched, unbatched := out[0], out[1]
	if !(float64(unbatched.CloneMsgs) >= 2*float64(batched.CloneMsgs)) {
		t.Errorf("batching should cut dispatches: %d vs %d", batched.CloneMsgs, unbatched.CloneMsgs)
	}
	if !(unbatched.Bytes > batched.Bytes) {
		t.Errorf("batching should cut bytes: %d vs %d", batched.Bytes, unbatched.Bytes)
	}
}

func TestCHTShape(t *testing.T) {
	out, err := CHT(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if o.Entries <= 0 || o.Peak <= 0 || o.ResultMsgs <= 0 {
			t.Errorf("degenerate CHT run: %+v", o)
		}
		if o.Peak > o.Entries {
			t.Errorf("peak %d exceeds entries %d", o.Peak, o.Entries)
		}
	}
}

func TestTerminationShape(t *testing.T) {
	out, err := Termination(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.FullEvals != 50 {
		t.Errorf("full run evals = %d", out.FullEvals)
	}
	if out.CancelEvals >= out.FullEvals {
		t.Errorf("cancel had no effect: %d", out.CancelEvals)
	}
	if out.TerminatedAt == 0 {
		t.Error("no server observed the passive termination signal")
	}
	// Nothing chases the clone: a stop goes only to a site that had
	// already reported, and each of those evaluated at least once.
	if out.ExtraMsgs > out.CancelEvals {
		t.Errorf("%d stops sent against %d evaluations: stops went to sites the query had not reached",
			out.ExtraMsgs, out.CancelEvals)
	}
}

func TestRewriteShape(t *testing.T) {
	out, err := Rewrite(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"L*2·G": "process", // first arrival
		"L*1·G": "drop",
		"L*4·G": "rewrite",
		"L*3·G": "drop",
		"L*·G":  "rewrite",
		"G·L":   "process",
	}
	seen := map[string]bool{}
	for _, c := range out {
		if seen[c.Arrives] {
			continue // the duplicate L*2·G row
		}
		seen[c.Arrives] = true
		if w, ok := want[c.Arrives]; ok && c.Action != w {
			t.Errorf("%s: action %s, want %s", c.Arrives, c.Action, w)
		}
	}
}

func TestDeadEndsShape(t *testing.T) {
	out, err := DeadEnds(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.WeakQ2Rows != 3 || out.StrictQ2Rows != 1 {
		t.Errorf("weak=%d strict=%d", out.WeakQ2Rows, out.StrictQ2Rows)
	}
}

func TestLatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	out, err := Latency(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	last := out[len(out)-1]
	if last.Cent < 3*last.Dist {
		t.Errorf("at %v latency centralized should be much slower: dist=%v cent=%v",
			last.Latency, last.Dist, last.Cent)
	}
}

func TestAllRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, e := range All() {
		if names[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		names[e.Name] = true
		if e.Paper == "" || e.Brief == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
	}
	if _, ok := Lookup("campus"); !ok {
		t.Error("Lookup(campus) failed")
	}
	if _, ok := Lookup("nosuch"); ok {
		t.Error("Lookup(nosuch) should fail")
	}
}

func TestMigrationShape(t *testing.T) {
	out, err := Migration(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("rows = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		prev, cur := out[i-1], out[i]
		if cur.Bytes >= prev.Bytes {
			t.Errorf("bytes must fall with participation: %d%% %d vs %d%% %d",
				prev.Percent, prev.Bytes, cur.Percent, cur.Bytes)
		}
		if cur.ServerEvals < prev.ServerEvals || cur.UserEvals > prev.UserEvals {
			t.Errorf("work must migrate to the servers: %+v -> %+v", prev, cur)
		}
	}
	full := out[len(out)-1]
	if full.UserEvals != 0 || full.Fetches != 0 || full.Bounces != 0 {
		t.Errorf("full participation should need no fallback: %+v", full)
	}
	none := out[0]
	if none.ServerEvals != 0 {
		t.Errorf("zero participation should use no servers: %+v", none)
	}
}

func TestWorkersShape(t *testing.T) {
	out, err := Workers(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("rows = %d", len(out))
	}
	for _, r := range out[1:] {
		if r.Rows != out[0].Rows || r.Evals != out[0].Evals {
			t.Errorf("answers must be invariant under processor concurrency: %+v vs %+v", out[0], r)
		}
	}
}

func TestAnytimeShape(t *testing.T) {
	out, err := Anytime(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.FinalRows == 0 {
		t.Fatal("no final rows")
	}
	prev := 0
	sawPartial := false
	for _, s := range out.Samples {
		if s.Rows < prev {
			t.Errorf("row count regressed: %d -> %d", prev, s.Rows)
		}
		prev = s.Rows
		if s.Rows > 0 && s.Rows < out.FinalRows {
			sawPartial = true
		}
		if s.Progress < 0 || s.Progress > 1 {
			t.Errorf("progress out of range: %v", s.Progress)
		}
	}
	if !sawPartial {
		t.Error("never observed a partial answer; latency too low to sample?")
	}
}

func TestFaultsShape(t *testing.T) {
	out, err := Faults(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Per (drop, engine) cell: completeness in range, and the qualitative
	// ordering the experiment exists to show.
	byKey := make(map[string]FaultsRow)
	for _, r := range out.Sweep {
		if r.Completeness < 0 || r.Completeness > 1 {
			t.Errorf("%s@%.0f%%: completeness %v out of range", r.Config, r.Drop*100, r.Completeness)
		}
		if r.Drop == 0 && (r.Completeness != 1 || r.Retries != 0 || r.Dropped != 0) {
			t.Errorf("fault-free cell not clean: %+v", r)
		}
		byKey[fmt.Sprintf("%s@%v", r.Config, r.Drop)] = r
	}
	if r := byKey["retry+bounce@0.05"]; r.Completeness != 1 || r.Retries == 0 {
		t.Errorf("retry+bounce at 5%% must recover the full answer via retries: %+v", r)
	}
	if r := byKey["classic@0.2"]; r.Completeness >= 1 {
		t.Errorf("classic engine at 20%% drop lost nothing; ablation shows nothing: %+v", r)
	}
	if classic, fT := byKey["classic@0.2"], byKey["retry+bounce@0.2"]; fT.Completeness <= classic.Completeness {
		t.Errorf("recovery layers did not help at 20%%: classic %v vs retry+bounce %v",
			classic.Completeness, fT.Completeness)
	}
	if out.DownRows != out.DownReachable || out.DownPartial {
		t.Errorf("degraded mode: rows=%d want %d, partial=%v", out.DownRows, out.DownReachable, out.DownPartial)
	}
	if out.CrashReaped == 0 || !out.CrashPartial {
		t.Errorf("silent crash: reaped=%d partial=%v, want reaping and a Partial mark", out.CrashReaped, out.CrashPartial)
	}
}

func TestLoadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness is slow")
	}
	// Few probes, no artifact: the structure of the result is under test,
	// not the latency ratios (those are recorded from a quiet machine in
	// BENCH_PR4.json; CI noise would make gating on them flaky).
	out, err := loadRun(io.Discard, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 4 {
		t.Fatalf("grid has %d cells, want 4 (pipe/tcp x fifo/fair)", len(out.Cells))
	}
	for _, c := range out.Cells {
		if c.UnloadedP50Ms <= 0 || c.LoadedP50Ms <= 0 || c.RatioP95 <= 0 {
			t.Errorf("%s/%s: non-positive latency %+v", c.Transport, c.Sched, c)
		}
		if c.LightRows == 0 {
			t.Errorf("%s/%s: probe delivered no rows", c.Transport, c.Sched)
		}
		if c.HeavyCompleted == 0 {
			t.Errorf("%s/%s: loaded phase completed no heavy queries", c.Transport, c.Sched)
		}
	}
	// Shedding: some of the volley must bounce with a typed SHED, the
	// client and server counts must agree, and no admitted query may lose
	// rows — in-flight work is never shed.
	s := out.Shed
	if s.ShedQueries == 0 {
		t.Error("shed segment never shed a query")
	}
	if int64(s.ShedQueries) != s.ShedMetric {
		t.Errorf("client saw %d sheds, server counted %d", s.ShedQueries, s.ShedMetric)
	}
	if s.Submitted != s.Admitted+s.ShedQueries {
		t.Errorf("submitted %d != admitted %d + shed %d", s.Submitted, s.Admitted, s.ShedQueries)
	}
	if s.LostRows != 0 {
		t.Errorf("admitted queries lost %d rows under shedding", s.LostRows)
	}
	// Expiry: the deadline must cut the scan short and the server-side
	// expiry count must reconcile 1:1 with EXPIRED fates in the journey.
	e := out.Expiry
	if !e.Reconciled {
		t.Errorf("expiry not reconciled: %d budget-expired vs %d EXPIRED fates", e.BudgetExpired, e.FateExpired)
	}
	if e.DeliveredRows >= e.TruthRows {
		t.Errorf("deadline did not clip the scan: delivered %d of %d", e.DeliveredRows, e.TruthRows)
	}
}

func TestStreamShape(t *testing.T) {
	if testing.Short() {
		t.Skip("stream grid is slow")
	}
	// Few measured runs, no artifact: structure and invariants, not the
	// ratios (single-machine CI numbers are too noisy to gate on).
	out, err := streamRun(io.Discard, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Latency) != 4 { // campus+tree40 x pipe+tcp
		t.Fatalf("latency grid has %d rows, want 4", len(out.Latency))
	}
	for _, r := range out.Latency {
		if r.FirstRowMs <= 0 || r.CompleteMs <= 0 || r.FirstRowMs > r.CompleteMs {
			t.Errorf("%s/%s: first-row %v / complete %v", r.Transport, r.Topology, r.FirstRowMs, r.CompleteMs)
		}
		// Streamed/buffered parity is asserted per run inside the cell;
		// the counts surface here.
		if r.Rows == 0 || r.Streamed != r.Rows {
			t.Errorf("%s/%s: streamed %d of %d rows", r.Transport, r.Topology, r.Streamed, r.Rows)
		}
	}
	if len(out.Batch) != 2 {
		t.Fatalf("batch grid has %d rows, want 2", len(out.Batch))
	}
	off, on := out.Batch[0], out.Batch[1]
	if off.Rows != on.Rows {
		t.Errorf("batching changed the answer: %d vs %d rows", off.Rows, on.Rows)
	}
	if off.ResultMsgs != off.ResultReports {
		t.Errorf("batch-off coalesced: %d msgs, %d reports", off.ResultMsgs, off.ResultReports)
	}
	if on.ResultMsgs >= on.ResultReports {
		t.Errorf("batch-on did not coalesce: %d msgs, %d reports", on.ResultMsgs, on.ResultReports)
	}
	if on.WireFrames != on.ResultMsgs {
		t.Errorf("fabric saw %d result frames, metrics counted %d", on.WireFrames, on.ResultMsgs)
	}
	if len(out.Stop) != 2 {
		t.Fatalf("stop grid has %d rows, want 2", len(out.Stop))
	}
	quota, firstn := out.Stop[0], out.Stop[1]
	if quota.Rows != firstn.Rows {
		t.Errorf("termination policies answered differently: %d vs %d rows", quota.Rows, firstn.Rows)
	}
	if quota.StopsSent != 0 || quota.Stopped != 0 {
		t.Errorf("quota-only cell stopped clones: %+v", quota)
	}
	if firstn.StopsSent == 0 {
		t.Errorf("first-n cell sent no stops: %+v", firstn)
	}
	if firstn.Bytes >= quota.Bytes {
		t.Errorf("active stop saved no bytes: %d vs %d", firstn.Bytes, quota.Bytes)
	}
}

func TestReplicasShape(t *testing.T) {
	if testing.Short() {
		t.Skip("replica grid is slow")
	}
	// Few queries per worker, no artifact: structure and invariants, not
	// the exact speedups (single-machine CI numbers are too noisy to
	// gate on tight ratios).
	out, err := replicasRun(io.Discard, 6, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Scale) != 3 {
		t.Fatalf("scale grid has %d rows, want 3", len(out.Scale))
	}
	for _, c := range out.Scale {
		if c.LostRows != 0 {
			t.Errorf("%d replicas: lost %d rows", c.Replicas, c.LostRows)
		}
		if c.ReplicasUsed < 1 || c.ReplicasUsed > c.Replicas {
			t.Errorf("%d replicas: %d used", c.Replicas, c.ReplicasUsed)
		}
	}
	if out.Scale[0].Replicas != 1 || out.Scale[1].Replicas != 2 || out.Scale[2].Replicas != 4 {
		t.Fatalf("scale grid rows are %d/%d/%d replicas, want 1/2/4",
			out.Scale[0].Replicas, out.Scale[1].Replicas, out.Scale[2].Replicas)
	}
	if out.Scale[2].ReplicasUsed < 2 {
		t.Errorf("4-replica cell used only %d replicas", out.Scale[2].ReplicasUsed)
	}
	// The uplink is the bottleneck, so adding replicas must add
	// throughput. Lenient floors: the full-size run shows ~2x and ~3.6x.
	if out.Scale[1].QPS < 1.3*out.Scale[0].QPS {
		t.Errorf("2 replicas did not scale: %.0f vs %.0f qps", out.Scale[1].QPS, out.Scale[0].QPS)
	}
	if out.Scale[2].QPS < 1.8*out.Scale[0].QPS {
		t.Errorf("4 replicas did not scale: %.0f vs %.0f qps", out.Scale[2].QPS, out.Scale[0].QPS)
	}
	if len(out.Kills) != 3 {
		t.Fatalf("kill grid has %d rows, want 3", len(out.Kills))
	}
	for _, c := range out.Kills {
		if c.Clean+c.Partial+c.Failed != c.Queries {
			t.Errorf("%d kills: %d+%d+%d fates for %d queries", c.Kills, c.Clean, c.Partial, c.Failed, c.Queries)
		}
		if c.Failed != 0 {
			t.Errorf("%d kills: %d queries failed outright", c.Kills, c.Failed)
		}
		if c.Kills == 0 {
			if c.AvailabilityPct != 100 || c.Failovers+c.Replays != 0 {
				t.Errorf("kill-free cell not clean: %+v", c)
			}
		} else if c.Failovers+c.Replays == 0 {
			t.Errorf("%d kills left no failover or replay trace: %+v", c.Kills, c)
		}
	}
}

func TestPlannerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("planner grid is slow")
	}
	// Few measured runs, no artifact: the qualitative claim — pushdown
	// engages and moves fewer bytes for the same answer — not the exact
	// ratios recorded in BENCH_PR7.json.
	out, err := plannerRun(io.Discard, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2*len(plannerConfigs()) {
		t.Fatalf("grid has %d rows, want %d", len(out.Rows), 2*len(plannerConfigs()))
	}
	rowsBy := make(map[string]int)
	for _, r := range out.Rows {
		if r.MeanMs < 0 || r.Bytes <= 0 || r.Rows <= 0 {
			t.Errorf("%s/%s: degenerate cell %+v", r.Topology, r.Config, r)
		}
		if prev, ok := rowsBy[r.Topology]; ok && prev != r.Rows {
			t.Errorf("%s: %s delivered %d rows, other configs %d", r.Topology, r.Config, r.Rows, prev)
		}
		rowsBy[r.Topology] = r.Rows
		switch r.Config {
		case "naive":
			if r.PushdownHits != 0 || r.PushdownSavedBytes != 0 || r.ShipDataEdges != 0 {
				t.Errorf("%s naive cell used planner machinery: %+v", r.Topology, r)
			}
		default: // pushdown, planner
			if r.PushdownHits == 0 || r.PushdownSavedBytes <= 0 {
				t.Errorf("%s/%s: pushdown never engaged: %+v", r.Topology, r.Config, r)
			}
		}
		if r.RowsScanned < r.RowsEmitted || r.RowsScanned == 0 {
			t.Errorf("%s/%s: scan/emit accounting off: %d/%d", r.Topology, r.Config, r.RowsScanned, r.RowsEmitted)
		}
	}
	// The headline claim: planner-on moves fewer bytes than naive shipping
	// on both topologies.
	if out.CampusBytesRatio <= 1 {
		t.Errorf("campus bytes ratio = %.2f, want > 1", out.CampusBytesRatio)
	}
	if out.TreeBytesRatio <= 1 {
		t.Errorf("tree40 bytes ratio = %.2f, want > 1", out.TreeBytesRatio)
	}
}

func TestWireShape(t *testing.T) {
	if testing.Short() {
		t.Skip("wire grid is slow")
	}
	// Few measured runs, no artifact: the structure — identical answers
	// down every column, the batching/tuning machinery engaging where
	// configured — not the speedup ratios recorded in BENCH_PR8.json.
	out, err := wireRun(io.Discard, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	want := len(wireConfigs()) * len(wireWorkloads()) * 2 // x transports
	if len(out.Rows) != want {
		t.Fatalf("grid has %d rows, want %d", len(out.Rows), want)
	}
	rowsBy := make(map[string]int)
	for _, r := range out.Rows {
		if r.MeanMs <= 0 || r.Messages <= 0 || r.MsgsPerSec <= 0 {
			t.Errorf("%s/%s/%s: degenerate cell %+v", r.Transport, r.Topology, r.Config, r)
		}
		// Every wire configuration must deliver the same complete answer
		// (wireRun also enforces the full canonical-row comparison).
		key := r.Transport + "/" + r.Topology
		if prev, ok := rowsBy[key]; ok && prev != r.Rows {
			t.Errorf("%s: %s delivered %d rows, other configs %d", key, r.Config, r.Rows, prev)
		}
		rowsBy[key] = r.Rows
		switch r.Config {
		case "gob", "v2":
			if r.ResultMsgs != r.ResultReports {
				t.Errorf("%s/%s unbatched cell coalesced frames: %d reports in %d messages",
					key, r.Config, r.ResultReports, r.ResultMsgs)
			}
			if r.TunesSent != 0 || r.BatchTunes != 0 {
				t.Errorf("%s/%s tuned without adaptive batching: %+v", key, r.Config, r)
			}
		case "gob-batch", "v2-batch":
			if r.ResultMsgs >= r.ResultReports {
				t.Errorf("%s/%s batching never coalesced: %d reports in %d messages",
					key, r.Config, r.ResultReports, r.ResultMsgs)
			}
		case "v2-adaptive":
			// Sent and applied counts skew at low run counts (a query's
			// final TUNE broadcast can land after its Wait returns), so
			// only their union is stable: the loop must engage somewhere.
			if r.Topology == "tree40" && r.TunesSent == 0 && r.BatchTunes == 0 {
				t.Errorf("%s adaptive cell never tuned: sent=%d applied=%d",
					key, r.TunesSent, r.BatchTunes)
			}
		}
	}
	// v2 must beat framed gob on the headline cell. Asserted on bytes per
	// message: the clock ratio of two 2-run cells on a shared box has read
	// either side of 1 since both arms keep warm collector sessions.
	perMsg := make(map[string]float64)
	for _, r := range out.Rows {
		if r.Transport == "tcp" && r.Topology == "tree40" {
			perMsg[r.Config] = r.BytesPerMsg
		}
	}
	t.Logf("tcp/tree40: gob %.0f B/msg, v2 %.0f B/msg; clock speedup %.2fx", perMsg["gob"], perMsg["v2"], out.SpeedupTCPTree)
	if gob, v2 := perMsg["gob"], perMsg["v2"]; v2 <= 0 || gob/v2 <= 1 {
		t.Errorf("tcp/tree40 bytes per message: gob %.0f, v2 %.0f, want gob/v2 > 1", gob, v2)
	}
}

func TestStoreShape(t *testing.T) {
	if testing.Short() {
		t.Skip("store grid is slow")
	}
	// Few measured runs, no artifact: the structure — identical answers
	// down every column, store arms serving cold-opened pages without a
	// single parse (storeCell enforces the counters), the eviction and
	// index machinery engaging — not the memory/latency headlines
	// recorded in BENCH_PR9.json (single-machine CI heap numbers are
	// too noisy to gate on).
	out, err := storeRun(io.Discard, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	want := len(storeConfigs()) * len(storeWorkloads())
	if len(out.Rows) != want {
		t.Fatalf("grid has %d rows, want %d", len(out.Rows), want)
	}
	if out.WebScale < 10 {
		t.Errorf("big web is only %.1fx the previous largest corpus, want >= 10x", out.WebScale)
	}
	rowsBy := make(map[string]int)
	for _, r := range out.Rows {
		if r.MeanMs <= 0 || r.Rows <= 0 {
			t.Errorf("%s/%s: degenerate cell %+v", r.Topology, r.Config, r)
		}
		if prev, ok := rowsBy[r.Topology]; ok && prev != r.Rows {
			t.Errorf("%s: %s delivered %d rows, other configs %d", r.Topology, r.Config, r.Rows, prev)
		}
		rowsBy[r.Topology] = r.Rows
		switch r.Config {
		case "ram":
			if r.PagesRead != 0 || r.ColdOpens != 0 {
				t.Errorf("%s/ram touched the store: %+v", r.Topology, r)
			}
		case "ram-bounded":
			if r.DBCacheEvicted == 0 {
				t.Errorf("%s/ram-bounded never evicted from the DB cache", r.Topology)
			}
		case "store", "store-noindex":
			if r.DocsParsed != 0 {
				t.Errorf("%s/%s parsed %d documents", r.Topology, r.Config, r.DocsParsed)
			}
			if r.PagesRead == 0 || r.ColdOpens == 0 {
				t.Errorf("%s/%s served nothing from pages: %+v", r.Topology, r.Config, r)
			}
			if r.Topology == "bigtree" && r.PagesEvicted == 0 {
				t.Errorf("%s/%s big web fit the %d-frame pool; eviction untested", r.Topology, r.Config, storePoolPages)
			}
			if r.Config == "store" && r.Topology == "bigtree" && r.IndexHits == 0 {
				t.Error("bigtree/store never consulted the text index")
			}
			if r.Config == "store-noindex" && r.IndexHits != 0 {
				t.Errorf("%s/store-noindex hit the index %d times", r.Topology, r.IndexHits)
			}
		}
	}
}

func TestWatchShape(t *testing.T) {
	// Short schedule, no artifact: correctness is enforced inside
	// watchRun (it errors on the first divergence from the full re-run
	// oracle), so the shape test asserts the structure — the watch
	// engaged, deltas flowed, and incremental maintenance moved fewer
	// bytes than naive re-execution. The 2x headline is asserted over
	// the full 60-step schedule in CI's bench job, not here.
	out, err := watchRun(io.Discard, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if !out.OracleOK {
		t.Error("oracle_ok = false")
	}
	if out.Epochs < out.Steps {
		t.Errorf("epochs = %d, want >= steps (%d)", out.Epochs, out.Steps)
	}
	if out.Baseline == 0 {
		t.Error("baseline standing set is empty")
	}
	if out.Edits+out.Rewires+out.Births+out.Removals != out.Steps {
		t.Errorf("op mix %d/%d/%d/%d does not sum to %d steps",
			out.Edits, out.Rewires, out.Births, out.Removals, out.Steps)
	}
	if out.IncrementalBytes <= 0 || out.NaiveBytes <= 0 {
		t.Fatalf("degenerate byte counts: incremental %d, naive %d", out.IncrementalBytes, out.NaiveBytes)
	}
	if out.SavingsX <= 1 {
		t.Errorf("savings = %.2fx, want > 1x", out.SavingsX)
	}
}
