package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// The user-site runs one Result Collector per client: these tests hold
// the shared endpoint to what the per-query sockets gave for free —
// nothing accumulates per query, and concurrent queries cannot see each
// other's reports.

// namer is the registered-name count both transports expose.
type namer interface{ Names() int }

// TestDeploymentDoesNotAge: a served query leaves nothing behind on the
// transport. After a warm-up that opens every connection the workload
// needs, 300 more runs dial nothing, register no name, park no extra idle
// connection in any site's pool and start no goroutine that outlives them.
func TestDeploymentDoesNotAge(t *testing.T) {
	web := webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 2, PagesPerSite: 2, MarkerFrac: 0.5, FillerWords: 20, Seed: 11,
	})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)*4 d where d.text contains %q`,
		web.First(), webgraph.Marker)
	want := baselineRows(t, web, src)

	for _, name := range []string{"pipe", "tcp"} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Web: web, Exec: ExecConfig{NoDocService: true}}
			var stats *netsim.Stats
			var names namer
			if name == "tcp" {
				tcp := netsim.NewTCP()
				cfg.Exec.Transport = tcp
				stats, names = tcp.Stats(), tcp
			}
			d := deployCfg(t, cfg)
			if stats == nil {
				stats, names = d.Network().Stats(), d.Network()
			}
			runs := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					q := run(t, d, src)
					if got := rowSet(q.Results()); len(got) != len(want) {
						t.Fatalf("run %d: %d rows, want %d", i, len(got), len(want))
					}
					if q.LiveEntries() != 0 {
						t.Fatalf("run %d: %d CHT entries live", i, q.LiveEntries())
					}
				}
			}
			type reading struct{ goroutines, names, idle int }
			read := func() reading {
				r := reading{goroutines: runtime.NumGoroutine(), names: names.Names()}
				for _, site := range web.Hosts() {
					r.idle += d.Server(site).IdleConns()
				}
				return r
			}

			// A run is over when the user-site has merged the last report;
			// its senders may still be handing their connections back to
			// the pools. settled reads once that has stopped.
			settled := func() reading {
				r, same := read(), 0
				for end := time.Now().Add(2 * time.Second); same < 4 && time.Now().Before(end); {
					time.Sleep(5 * time.Millisecond)
					if next := read(); next == r {
						same++
					} else {
						r, same = next, 0
					}
				}
				return r
			}

			runs(5)
			before, dials := settled(), stats.Snapshot().Total().Dials
			runs(300)
			if got := stats.Snapshot().Total().Dials; got != dials {
				t.Errorf("dials grew %d -> %d over 300 runs", dials, got)
			}
			if after := settled(); after != before {
				t.Errorf("deployment aged over 300 runs: %+v -> %+v", before, after)
			}
		})
	}
}

// TestSharedCollectorIsolation runs eight concurrent one-shot queries and
// a watch through one client over real sockets — one query cancelled
// mid-flight, one cut short by Budget.FirstN — and checks that routing by
// id keeps them apart: every undisturbed query gets exactly the oracle's
// answer with a balanced CHT and the same protocol counts as its twins
// (a report delivered to the wrong query would break both), the watch
// keeps advancing, and the client never holds more than its one listener.
func TestSharedCollectorIsolation(t *testing.T) {
	web := webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 3, PagesPerSite: 2, MarkerFrac: 0.5, FillerWords: 30, Seed: 7,
	})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)*6 d where d.text contains %q`,
		web.First(), webgraph.Marker)
	want := baselineRows(t, web, src)
	if len(want) < 10 {
		t.Fatalf("oracle has %d rows; test proves nothing", len(want))
	}

	tcp := netsim.NewTCP()
	d := deployCfg(t, Config{
		Web:   web,
		Exec:  ExecConfig{Transport: tcp, NoDocService: true},
		Watch: WatchConfig{Mutations: webgraph.MutationPlan{Seed: 42}},
	})
	names := tcp.Names() // the client has not bound anything yet
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	wa, err := d.Watch(ctx, src, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wa.Close()
	if got := tcp.Names(); got != names+1 {
		t.Fatalf("watch registration bound %d names, want 1", got-names)
	}

	const plain = 6
	w := disql.MustParse(src)
	var wg sync.WaitGroup
	stats := make([]client.Stats, plain)
	for i := 0; i < plain; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := d.Submit(w)
			if err != nil {
				t.Error(err)
				return
			}
			if err := q.Wait(waitFor); err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			got := rowSet(q.Results())
			if k, ok := subset(got, want); !ok || len(got) != len(want) {
				t.Errorf("query %d: %d rows (stray %q), want the oracle's %d", i, len(got), k, len(want))
			}
			if n := q.LiveEntries(); n != 0 || q.Err() != nil {
				t.Errorf("query %d: %d live entries, err %v", i, n, q.Err())
			}
			stats[i] = q.Stats()
		}()
	}
	wg.Add(2)
	var cancelled *client.Query
	go func() {
		defer wg.Done()
		q, err := d.Submit(w)
		if err != nil {
			t.Error(err)
			return
		}
		q.Cancel() // its root clone is at most one hop out
		if err := q.Wait(waitFor); err != client.ErrCancelled {
			t.Errorf("cancelled query: Wait = %v", err)
		}
		cancelled = q
	}()
	go func() {
		defer wg.Done()
		q, err := d.SubmitBudget(w, wire.Budget{FirstN: 3})
		if err != nil {
			t.Error(err)
			return
		}
		if err := q.Wait(waitFor); err != nil {
			t.Errorf("first-n query: %v", err)
			return
		}
		got := rowSet(q.Results())
		// The row quota is inherited per branch, so a tree may deliver a
		// few rows past the target before the stop lands.
		if k, ok := subset(got, want); !ok || len(got) < 3 {
			t.Errorf("first-n query: %d rows (stray %q), want at least 3 of the oracle's", len(got), k)
		}
		if !q.Stopped() || q.LiveEntries() != 0 {
			t.Errorf("first-n query: stopped=%v live=%d", q.Stopped(), q.LiveEntries())
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < plain; i++ {
		a, b := stats[0], stats[i]
		if a.ResultMsgs != b.ResultMsgs || a.EntriesAdded != b.EntriesAdded || a.EntriesRetired != b.EntriesRetired {
			t.Errorf("twin queries disagree on protocol counts:\n0: %+v\n%d: %+v", a, i, b)
		}
	}
	// The cancelled query left the routing table with the cancel: it kept
	// none of what arrived afterwards (and, by the twins' counts above,
	// neither did anybody else).
	if n := len(rowSet(cancelled.Results())); n >= len(want) {
		t.Errorf("cancelled query holds %d rows of %d: the cancel came too late to prove anything", n, len(want))
	}
	frozen := cancelled.Stats()

	// The watch still hears its sites on the same endpoint.
	epochs := 0
	for step := 0; step < 5; step++ {
		_, notified := d.Mutate(1)
		epochs += notified
	}
	if epochs == 0 {
		t.Fatal("mutation schedule notified nobody")
	}
	if err := wa.WaitEpoch(ctx, epochs); err != nil {
		t.Fatalf("WaitEpoch(%d): %v", epochs, err)
	}
	if got, want := renderTables(wa.Results()), renderResults(run(t, d, src)); got != want {
		t.Errorf("watch diverged from a re-run\nwatch:\n%s\nre-run:\n%s", got, want)
	}
	if got := cancelled.Stats(); got != frozen {
		t.Errorf("cancelled query kept merging:\nat cancel: %+v\nnow:       %+v", frozen, got)
	}
	if got := tcp.Names(); got != names+1 {
		t.Errorf("client holds %d listeners, want 1", got-names)
	}
}
