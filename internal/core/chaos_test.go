package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// chaosRetry is the fault-tolerance configuration under test: bounded
// exponential backoff ahead of the hybrid bounce.
var chaosRetry = server.RetryPolicy{
	Attempts: 5,
	Base:     time.Millisecond,
	Max:      20 * time.Millisecond,
	Timeout:  500 * time.Millisecond,
}

// rowSet flattens result tables into a comparable set of rows.
func rowSet(tables []client.ResultTable) map[string]bool {
	set := make(map[string]bool)
	for _, tb := range tables {
		for _, row := range tb.Rows {
			set[fmt.Sprintf("%d|%s", tb.Stage, strings.Join(row, "|"))] = true
		}
	}
	return set
}

func subset(sub, super map[string]bool) (string, bool) {
	for k := range sub {
		if !super[k] {
			return k, false
		}
	}
	return "", true
}

// baselineRows computes the centralized answer over a clean (fault-free)
// deployment of the same web — the ground truth the chaos runs are
// differentially checked against.
func baselineRows(t *testing.T, web *webgraph.Web, src string) map[string]bool {
	t.Helper()
	d, err := NewDeployment(Config{Web: web})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := centralized.Run(d.Network(), "central/results", disql.MustParse(src), centralized.Options{})
	if err != nil {
		t.Fatalf("centralized baseline: %v", err)
	}
	return rowSet(res.Tables)
}

func chaosWeb(seed int64) *webgraph.Web {
	// One page per site, so every tree edge is a global link.
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 3, PagesPerSite: 1,
		MarkerFrac: 0.6, FillerWords: 30, Seed: seed,
	})
}

const chaosDISQL = `
select d.url
from document d such that "http://t0.example/p0.html" N|(G*3) d
where d.text contains "` + webgraph.Marker + `"`

// TestChaosDropDifferential injects seeded message drops (plus a dash of
// mid-frame severs) at increasing rates and differentially checks the
// fault-tolerant engine against the centralized baseline: delivered rows
// are always a subset of the true answer, retry+bounce recovers the full
// answer at moderate loss, and any shortfall is accounted for by an
// explicit recovery/loss counter — rows never vanish silently. At 20%
// loss it still delivers more than the classic engine on the same
// schedules.
func TestChaosDropDifferential(t *testing.T) {
	// Rows delivered at 20% drop with recovery, and by the classic engine
	// (no retry, no bounce).
	var recovered, classic int
	for _, seed := range []int64{1, 2} {
		web := chaosWeb(seed)
		want := baselineRows(t, web, chaosDISQL)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty baseline", seed)
		}
		for _, drop := range []float64{0, 0.05, 0.20} {
			t.Run(fmt.Sprintf("seed%d/drop%.0f%%", seed, drop*100), func(t *testing.T) {
				d, err := NewDeployment(Config{
					Web: web,
					Net: netsim.Options{Faults: netsim.FaultPlan{
						Seed: seed, Drop: drop, Sever: drop / 5,
					}},
					Exec: ExecConfig{
						Server:    server.Options{Retry: chaosRetry},
						Hybrid:    true,
						ReapGrace: 400 * time.Millisecond,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				q, err := d.Run(chaosDISQL, 30*time.Second)
				if err != nil {
					t.Fatalf("query did not terminate cleanly: %v", err)
				}
				got := rowSet(q.Results())
				if k, ok := subset(got, want); !ok {
					t.Fatalf("delivered row %q not in the centralized answer", k)
				}

				sn := d.Metrics().Snapshot()
				user, _ := userAndServers(d)
				net := d.Network().Stats().Snapshot().Total()
				lossSignals := sn.Terminated + sn.ForwardFailed + sn.CHTReaped + user.DocErrors
				if len(got) != len(want) && lossSignals == 0 {
					t.Errorf("lost %d rows with no loss counter raised (metrics %+v, proxy %+v)",
						len(want)-len(got), sn, user)
				}
				if lossSignals == 0 && len(got) != len(want) {
					t.Errorf("rows = %d, want %d", len(got), len(want))
				}

				switch drop {
				case 0:
					if len(got) != len(want) {
						t.Errorf("fault-free rows = %d, want %d", len(got), len(want))
					}
					if sn.Retries != 0 || net.Dropped != 0 {
						t.Errorf("fault-free run shows retries=%d dropped=%d", sn.Retries, net.Dropped)
					}
				case 0.05:
					// Moderate loss: retry (and bounce, if a retry loop is
					// exhausted) recovers the complete answer.
					if len(got) != len(want) {
						t.Errorf("rows at 5%% drop = %d, want full answer %d (metrics %+v, proxy %+v)",
							len(got), len(want), sn, user)
					}
					if net.Dropped == 0 || sn.Retries == 0 {
						t.Errorf("expected injected drops and retries, got dropped=%d retries=%d",
							net.Dropped, sn.Retries)
					}
				case 0.20:
					if net.Dropped == 0 {
						t.Error("no drops injected at 20%")
					}
					recovered += len(got)
					classic += classicRows(t, web, netsim.FaultPlan{Seed: seed, Drop: drop, Sever: drop / 5})
				}
			})
		}
	}
	if recovered <= classic {
		t.Errorf("at 20%% drop recovery delivered %d rows, the classic engine %d", recovered, classic)
	}
}

// classicRows runs chaosDISQL on the classic engine under plan and counts
// the rows it delivers: none when the first dispatch is lost. Its reaper
// is quick, since only the count matters here.
func classicRows(t *testing.T, web *webgraph.Web, plan netsim.FaultPlan) int {
	t.Helper()
	d := deployCfg(t, Config{
		Web:  web,
		Net:  netsim.Options{Faults: plan},
		Exec: ExecConfig{ReapGrace: 100 * time.Millisecond},
	})
	defer d.Close()
	q, err := d.Run(chaosDISQL, 30*time.Second)
	if q == nil {
		if err == nil {
			t.Fatal("no query and no error")
		}
		return 0
	}
	return len(rowSet(q.Results()))
}

// TestChaosNoRetryAblation turns the retry/bounce machinery off and keeps
// only the reaper: at 20% drop the classic engine demonstrably loses rows
// (the recovery path, not the fault model, is what preserved them above),
// yet every run still terminates within its deadline.
func TestChaosNoRetryAblation(t *testing.T) {
	lost := false
	for _, seed := range []int64{1, 2, 3} {
		web := chaosWeb(seed)
		want := baselineRows(t, web, chaosDISQL)
		d, err := NewDeployment(Config{
			Web: web,
			Net: netsim.Options{Faults: netsim.FaultPlan{Seed: seed, Drop: 0.20}},
			Exec: ExecConfig{
				ReapGrace: 400 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		q, runErr := d.Run(chaosDISQL, 30*time.Second)
		if runErr != nil {
			if errors.Is(runErr, client.ErrTimeout) {
				t.Fatalf("seed %d: no-retry run did not terminate: %v", seed, runErr)
			}
			// The classic engine could not even deliver the initial clone
			// (Submit surfaces the dropped dispatch): total loss, promptly.
			lost = true
			d.Close()
			continue
		}
		got := rowSet(q.Results())
		if k, ok := subset(got, want); !ok {
			t.Fatalf("seed %d: delivered row %q not in the centralized answer", seed, k)
		}
		sn := d.Metrics().Snapshot()
		if sn.Retries != 0 {
			t.Errorf("seed %d: ablation performed %d retries", seed, sn.Retries)
		}
		if len(got) < len(want) {
			lost = true
			if sn.Terminated+sn.ForwardFailed+sn.CHTReaped == 0 {
				t.Errorf("seed %d: lost rows with no loss counter raised (%+v)", seed, sn)
			}
		}
		d.Close()
	}
	if !lost {
		t.Error("no-retry engine lost no rows at 20% drop across any seed; ablation shows nothing")
	}
}

// TestChaosDownSiteDegradedMode takes one leaf site down for the whole
// run. Forward retries to it exhaust, the clone bounces to the user-site,
// and the proxy's downloads fail too — so the engine degrades cleanly:
// it returns exactly the answer restricted to reachable documents, the
// bounce and load-failure counters account for the difference, and no CHT
// entry is left for the reaper (the bounce path retired everything).
func TestChaosDownSiteDegradedMode(t *testing.T) {
	web := webgraph.Tree(webgraph.TreeOpts{
		Fanout: 2, Depth: 3, PagesPerSite: 1, MarkerFrac: 1.0, Seed: 5,
	})
	const src = `
select d.url
from document d such that "http://t0.example/p0.html" N|(G*3) d
where d.text contains "` + webgraph.Marker + `"`
	const victim = "t14.example" // the last leaf's site

	want := baselineRows(t, web, src)
	reachable := make(map[string]bool)
	for k := range want {
		if !strings.Contains(k, victim) {
			reachable[k] = true
		}
	}
	if len(reachable) == len(want) {
		t.Fatal("victim site contributes no rows; test proves nothing")
	}

	d, err := NewDeployment(Config{
		Web: web,
		Net: netsim.Options{Faults: netsim.FaultPlan{
			Windows: []netsim.DownWindow{{Endpoint: victim, From: 0, Until: time.Hour}},
		}},
		Exec: ExecConfig{
			Server:    server.Options{Retry: server.RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 5 * time.Millisecond}},
			Hybrid:    true,
			ReapGrace: 400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q, err := d.Run(src, waitFor)
	if err != nil {
		t.Fatalf("degraded run did not terminate cleanly: %v", err)
	}
	got := rowSet(q.Results())
	if len(got) != len(reachable) {
		t.Errorf("rows = %d, want the %d reachable rows (of %d total)", len(got), len(reachable), len(want))
	}
	if k, ok := subset(got, reachable); !ok {
		t.Errorf("delivered row %q is not reachable", k)
	}
	user, servers := userAndServers(d)
	if servers.Retries == 0 || user.RecoveredByBounce == 0 {
		t.Errorf("expected retry exhaustion and bounce recovery, got retries=%d recovered=%d",
			servers.Retries, user.RecoveredByBounce)
	}
	if user.DocErrors == 0 {
		t.Errorf("the proxy should have failed to load the down site's documents: %+v", user)
	}
	// The bounce path retired every entry itself; nothing was orphaned.
	if q.Partial() || q.Stats().Reaped != 0 {
		t.Errorf("clean degraded run marked Partial=%v reaped=%d", q.Partial(), q.Stats().Reaped)
	}
}

// TestChaosOrphanReapedAfterSilentCrash partitions one site's *outbound*
// edge to the user mid-deployment: the site accepts clones but its result
// dispatches never arrive, so its CHT entries are orphaned — the exact
// case retries and bounces cannot fix. The grace-window reaper must
// retire them, mark the query Partial, name the unreachable site, and
// still deliver every row the healthy sites produced.
func TestChaosOrphanReapedAfterSilentCrash(t *testing.T) {
	const victim = "dsl.serc.iisc.ernet.in"
	d, err := NewDeployment(Config{
		Web: webgraph.Campus(),
		Exec: ExecConfig{
			Server:    server.Options{Retry: server.RetryPolicy{Attempts: 2, Base: time.Millisecond}},
			ReapGrace: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Cut only the victim's path back to the user: it still receives and
	// processes clones, but its reports vanish (prefix "user" covers the
	// collector endpoint "user/c").
	d.Network().Block(victim, "user", true)

	q, err := d.Run(webgraph.CampusDISQL, waitFor)
	if err != nil {
		t.Fatalf("query did not terminate despite the silent crash: %v", err)
	}
	if !q.Partial() {
		t.Fatal("query not marked Partial after orphaned entries were reaped")
	}
	if got := q.Unreachable(); len(got) != 1 || got[0] != victim {
		t.Errorf("Unreachable() = %v, want [%s]", got, victim)
	}
	st := q.Stats()
	if st.Reaped == 0 {
		t.Error("no CHT entries reaped")
	}
	sn := d.Metrics().Snapshot()
	if sn.CHTReaped != int64(st.Reaped) {
		t.Errorf("metrics CHTReaped=%d, query reaped=%d", sn.CHTReaped, st.Reaped)
	}
	if sn.Terminated == 0 {
		t.Error("the crashed site never hit passive termination")
	}
	// The two reachable conveners still arrive (Figure 8 minus the victim).
	results := q.Results()
	if len(results) != 2 || len(results[1].Rows) != 2 {
		t.Errorf("results = %+v, want q2 with the 2 reachable convener rows", results)
	}
}

// TestChaosFaultScheduleProperty is the property test: for any seeded
// fault schedule (random drop and sever rates, plus a transient down
// window on half the runs), a fault-tolerant query always terminates
// within its deadline, and Partial is set exactly when orphaned CHT
// entries were reaped.
func TestChaosFaultScheduleProperty(t *testing.T) {
	const src = `
select d.url
from document d such that "http://r0.example/p0.html" N|(G*4) d
where d.text contains "` + webgraph.Marker + `"`
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			web := webgraph.Random(webgraph.RandomOpts{
				Sites: 10, PagesPerSite: 1, GlobalOut: 2,
				MarkerFrac: 0.5, FillerWords: 30, Seed: seed,
			})
			plan := netsim.FaultPlan{
				Seed:  seed,
				Drop:  r.Float64() * 0.25,
				Sever: r.Float64() * 0.08,
			}
			if seed%2 == 0 {
				plan.Windows = []netsim.DownWindow{{
					Endpoint: fmt.Sprintf("r%d.example", 1+r.Intn(9)),
					From:     0, Until: 50 * time.Millisecond,
				}}
			}
			d, err := NewDeployment(Config{
				Web: web,
				Net: netsim.Options{Faults: plan},
				Exec: ExecConfig{
					Server: server.Options{Retry: server.RetryPolicy{
						Attempts: 3, Base: time.Millisecond, Max: 10 * time.Millisecond,
						Timeout: 200 * time.Millisecond,
					}},
					Hybrid:    true,
					ReapGrace: 300 * time.Millisecond,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			q, err := d.Run(src, 20*time.Second)
			if err != nil {
				t.Fatalf("schedule %+v: query did not terminate within deadline: %v", plan, err)
			}
			if q.Partial() != (q.Stats().Reaped > 0) {
				t.Errorf("schedule %+v: Partial=%v but reaped=%d", plan, q.Partial(), q.Stats().Reaped)
			}
		})
	}
}
