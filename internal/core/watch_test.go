package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"webdis/internal/client"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// watchWeb is the continuous-query workload: a 13-site, 39-page tree
// with half the pages carrying the marker, so content edits genuinely
// flip answers in and out of the standing result set.
func watchWeb() *webgraph.Web {
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 2, PagesPerSite: 3,
		MarkerFrac: 0.5, FillerWords: 40, Seed: 7,
	})
}

const watchRoot = "http://t0.example/p0.html"

// watchSrcs are the standing queries under test: a one-stage content
// query (edits flip rows) and a two-stage uncorrelated traversal (both
// stages observable, so flip-promotion stays exact).
func watchSrcs() []string {
	return []string{
		`select d.url from document d such that "` + watchRoot + `" N|(G*2) d
		 where d.text contains "` + webgraph.Marker + `"`,
		`select d0.url, d1.url
		 from document d0 such that "` + watchRoot + `" G d0,
		      document d1 such that d0 L d1
		 where d1.text contains "` + webgraph.Marker + `"`,
	}
}

func renderTables(tables []client.ResultTable) string {
	var b strings.Builder
	for _, t := range tables {
		fmt.Fprintf(&b, "stage %d [%s]\n", t.Stage, strings.Join(t.Cols, ","))
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "  %q\n", r)
		}
	}
	return b.String()
}

// deltaKey identifies a standing row for replaying a delta stream.
func deltaKey(stage int, row []string) string {
	return fmt.Sprintf("%d\x01%s", stage, strings.Join(row, "\x00"))
}

// replayState converts a result snapshot into the keyed form deltas
// apply to.
func replayState(tables []client.ResultTable) map[string][]string {
	out := make(map[string][]string)
	for _, t := range tables {
		for _, r := range t.Rows {
			out[deltaKey(t.Stage, r)] = r
		}
	}
	return out
}

// testWatchOracle is the subsystem's central acceptance property: at
// every step of a seeded mutation schedule, each watch's delta-maintained
// result set must equal a from-scratch re-run of the same query against
// the mutated web, and the emitted delta stream must replay the baseline
// snapshot into the final one.
func testWatchOracle(t *testing.T, tr netsim.Transport, srv server.Options, steps int) {
	t.Helper()
	if testing.Short() {
		steps = min(steps, 10)
	}
	d, err := NewDeployment(Config{
		Web: watchWeb(),
		Exec: ExecConfig{
			Transport: tr,
			Server:    srv,
		},
		Watch: WatchConfig{Mutations: webgraph.MutationPlan{Seed: 42}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type armWatch struct {
		src      string
		w        *client.Watch
		baseline map[string][]string
		deltas   []client.Delta
		done     chan struct{}
	}
	var watches []*armWatch
	for _, src := range watchSrcs() {
		w, err := d.Watch(ctx, src, WatchOptions{})
		if err != nil {
			t.Fatalf("watch %q: %v", src, err)
		}
		t.Cleanup(func() { w.Close() })
		aw := &armWatch{src: src, w: w, baseline: replayState(w.Results()), done: make(chan struct{})}
		// Baseline must equal a one-shot run before any mutation.
		q := run(t, d, src)
		if got, want := renderTables(w.Results()), renderResults(q); got != want {
			t.Fatalf("baseline mismatch\nwatch:\n%s\noneshot:\n%s", got, want)
		}
		go func() {
			defer close(aw.done)
			for delta, err := range aw.w.Deltas() {
				if err != nil {
					if !errors.Is(err, client.ErrWatchClosed) {
						t.Errorf("delta stream: %v", err)
					}
					return
				}
				aw.deltas = append(aw.deltas, delta)
			}
		}()
		watches = append(watches, aw)
	}

	// Bytes on the fabric while the watches catch up with a mutation, and
	// while the oracle re-runs every standing query from scratch.
	var stats *netsim.Stats
	if tcp, ok := tr.(*netsim.TCPTransport); ok {
		stats = tcp.Stats()
	} else {
		stats = d.Network().Stats()
	}
	var maintained, rerun int64
	want := 0
	applied := 0
	for step := 0; step < steps; step++ {
		b0 := stats.Snapshot().Total().Bytes
		muts, notified := d.Mutate(1)
		if len(muts) == 0 {
			t.Fatalf("step %d: mutation schedule dried up", step)
		}
		applied += len(muts)
		want += notified
		for _, aw := range watches {
			if err := aw.w.WaitEpoch(ctx, want); err != nil {
				t.Fatalf("step %d (%v): WaitEpoch(%d): %v", step, muts[0], want, err)
			}
		}
		b1 := stats.Snapshot().Total().Bytes
		maintained += b1 - b0
		for _, aw := range watches {
			oracle := run(t, d, aw.src)
			if got, wantR := renderTables(aw.w.Results()), renderResults(oracle); got != wantR {
				t.Fatalf("step %d (%v): watch diverged from re-run oracle\nwatch:\n%s\noracle:\n%s",
					step, muts[0], got, wantR)
			}
		}
		rerun += stats.Snapshot().Total().Bytes - b1
	}
	if applied < steps {
		t.Fatalf("applied %d mutations, want %d", applied, steps)
	}
	if want == 0 {
		t.Fatal("no change notifications were delivered (vacuous run)")
	}
	t.Logf("%d steps: %d B maintaining the watches, %d B re-running them", steps, maintained, rerun)
	if maintained >= rerun {
		t.Errorf("maintaining the watches moved %d B, re-running them %d B", maintained, rerun)
	}

	// The delta stream replays the baseline into the final snapshot,
	// with nondecreasing epochs.
	totalDeltas := 0
	for _, aw := range watches {
		final := replayState(aw.w.Results())
		aw.w.Close()
		select {
		case <-aw.done:
		case <-ctx.Done():
			t.Fatal("delta collector did not finish")
		}
		state := aw.baseline
		epoch := 0
		totalDeltas += len(aw.deltas)
		for _, delta := range aw.deltas {
			if delta.Epoch < epoch {
				t.Fatalf("delta epochs went backwards: %d after %d", delta.Epoch, epoch)
			}
			epoch = delta.Epoch
			switch delta.Op {
			case client.DeltaAdd:
				state[deltaKey(delta.Stage, delta.Row)] = delta.Row
			case client.DeltaRemove:
				delete(state, deltaKey(delta.Stage, delta.Row))
			default:
				t.Fatalf("unknown delta op %v", delta.Op)
			}
		}
		if len(state) != len(final) {
			t.Fatalf("delta replay has %d rows, final snapshot %d", len(state), len(final))
		}
		for k := range final {
			if _, ok := state[k]; !ok {
				t.Fatalf("delta replay missing row %q", k)
			}
		}
	}
	if steps >= 20 && totalDeltas == 0 {
		t.Fatal("mutation schedule produced zero deltas (vacuous run)")
	}
}

func TestWatchOraclePipe(t *testing.T)    { testWatchOracle(t, nil, server.Options{}, 100) }
func TestWatchOraclePlanner(t *testing.T) { testWatchOracle(t, nil, plannerOn(), 40) }
func TestWatchOracleTCP(t *testing.T)     { testWatchOracle(t, netsim.NewTCP(), server.Options{}, 40) }
func TestWatchOracleTCPPlanner(t *testing.T) {
	testWatchOracle(t, netsim.NewTCP(), plannerOn(), 25)
}

// TestWatchRejects pins the API contract: grouped/ordered and correlated
// queries cannot be watched.
func TestWatchRejects(t *testing.T) {
	d := deploy(t, watchWeb(), server.Options{})
	ctx := context.Background()
	_, err := d.Watch(ctx, `select d.url from document d such that "`+watchRoot+`" N|(G*1) d
		order by d.url`, WatchOptions{})
	if !errors.Is(err, client.ErrWatchOutput) {
		t.Errorf("ordered watch: err = %v, want ErrWatchOutput", err)
	}
	_, err = d.Watch(ctx, `select d0.url, d1.url
		from document d0 such that "`+watchRoot+`" G d0,
		     document d1 such that d0 L d1
		where d1.title contains d0.title`, WatchOptions{})
	if !errors.Is(err, client.ErrWatchCorrelated) {
		t.Errorf("correlated watch: err = %v, want ErrWatchCorrelated", err)
	}
}

// TestMutateStoreInvalidation checks site-local change detection against
// the persistent store: after a burst of mutations, queries over the
// invalidated store must be byte-identical to a cold store rebuilt from
// the mutated web — over pipe and over TCP.
func TestMutateStoreInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   func() netsim.Transport
	}{
		{"pipe", func() netsim.Transport { return nil }},
		{"tcp", func() netsim.Transport { return netsim.NewTCP() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			web := watchWeb()
			warm, err := NewDeployment(Config{
				Web: web,
				Exec: ExecConfig{
					Transport: tc.tr(),
				},
				Storage: server.StoreOptions{Dir: t.TempDir(), PoolPages: 64},
				Watch:   WatchConfig{Mutations: webgraph.MutationPlan{Seed: 99}},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(warm.Close)
			src := watchSrcs()[0]
			run(t, warm, src) // populate store pages and caches pre-mutation
			if muts, _ := warm.Mutate(30); len(muts) != 30 {
				t.Fatalf("applied %d mutations, want 30", len(muts))
			}
			qWarm := run(t, warm, src)

			// Cold arm: a fresh store built from the already-mutated web.
			cold, err := NewDeployment(Config{
				Web: web,
				Exec: ExecConfig{
					Transport: tc.tr(),
				},
				Storage: server.StoreOptions{Dir: t.TempDir(), PoolPages: 64},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cold.Close)
			qCold := run(t, cold, src)
			if got, want := renderResults(qWarm), renderResults(qCold); got != want {
				t.Errorf("invalidated store diverged from cold rebuild\nwarm:\n%s\ncold:\n%s", got, want)
			}
		})
	}
}

// countGoroutines samples the goroutine count after a settling period,
// retrying until it stops above the floor or the deadline passes.
func settledGoroutines(floor int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > floor && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestStreamAbandonNoLeak pins the Query.Stream lifecycle fix: a consumer
// that abandons the stream channel without cancelling must not leak the
// pump goroutine once the owning deployment closes.
func TestStreamAbandonNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		d := deploy(t, watchWeb(), server.Options{})
		for i := 0; i < 4; i++ {
			q := run(t, d, watchSrcs()[0])
			// Abandon immediately: never read, never cancel. The pump
			// must be bounded by the deployment's done channel alone.
			_ = q.Stream(context.Background())
		}
		d.Close()
	}()
	after := settledGoroutines(before)
	if after > before+2 {
		t.Errorf("goroutines: %d before, %d after abandoning streams (leak)", before, after)
	}
}

// TestWatchAbandonedStreamNoLeak is the same property for Watch.Stream.
func TestWatchAbandonedStreamNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		d := deploy(t, watchWeb(), server.Options{})
		w, err := d.Watch(context.Background(), watchSrcs()[0], WatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_ = w.Stream(context.Background())
		d.Close()
	}()
	after := settledGoroutines(before)
	if after > before+2 {
		t.Errorf("goroutines: %d before, %d after abandoning watch stream (leak)", before, after)
	}
}

// TestWatchBudgetOption checks the per-watch budget override plumbs
// through: an already-expired deadline must fail the baseline run.
func TestWatchBudgetOption(t *testing.T) {
	d := deploy(t, watchWeb(), server.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), waitFor)
	defer cancel()
	_, err := d.Watch(ctx, watchSrcs()[0], WatchOptions{Budget: wire.Budget{Deadline: 1}})
	if !errors.Is(err, client.ErrExpired) {
		t.Errorf("expired baseline: err = %v, want ErrExpired", err)
	}
}
