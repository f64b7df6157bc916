package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/core"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// FaultsRow is one cell of the T11 recovery sweep: one engine
// configuration at one message-drop rate, averaged over the seeds.
type FaultsRow struct {
	Drop         float64
	Config       string
	Completeness float64 // delivered rows / true answer, mean over seeds
	Retries      int64
	Bounced      int64
	Reaped       int64
	Dropped      int64 // frames killed by the fault injector
	Failed       int   // runs that could not even deliver the initial clone
}

// FaultsOut is the T11 result.
type FaultsOut struct {
	Sweep []FaultsRow

	// Degraded mode: one site down for the whole run, retry+bounce engine.
	DownExpected  int
	DownReachable int
	DownRows      int
	DownPartial   bool

	// Silent crash: a site that accepts clones but whose reports never
	// arrive; only the reaper can terminate the query.
	CrashRows    int
	CrashReaped  int
	CrashPartial bool
}

var faultRetry = server.RetryPolicy{
	Attempts: 5,
	Base:     time.Millisecond,
	Max:      20 * time.Millisecond,
	Timeout:  500 * time.Millisecond,
}

func faultsWeb(seed int64) *webgraph.Web {
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 3, PagesPerSite: 1,
		MarkerFrac: 0.6, FillerWords: 30, Seed: seed,
	})
}

func faultsQuery(start string) string {
	return fmt.Sprintf(`select d.url from document d such that %q N|(G*3) d where d.text contains %q`,
		start, webgraph.Marker)
}

// faultsTruth computes the true answer size over a clean deployment.
func faultsTruth(web *webgraph.Web, src string) (int, error) {
	d, err := core.NewDeployment(core.Config{Web: web})
	if err != nil {
		return 0, err
	}
	defer d.Close()
	w, err := disql.Parse(src)
	if err != nil {
		return 0, err
	}
	res, err := centralized.Run(d.Network(), "user/central", w, centralized.Options{})
	if err != nil {
		return 0, err
	}
	rows := 0
	for _, t := range res.Tables {
		rows += len(t.Rows)
	}
	return rows, nil
}

// faultsRun executes one faulty run and returns the delivered row count
// (0 when even the initial dispatch was lost) plus the query handle.
func faultsRun(cfg core.Config, src string) (int, *client.Query, *core.Deployment, error) {
	d, err := core.NewDeployment(cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	q, err := d.Run(src, 30*time.Second)
	if err != nil {
		if q == nil {
			return 0, nil, d, nil // initial dispatch dropped: total loss
		}
		d.Close()
		return 0, nil, nil, err
	}
	rows := 0
	for _, t := range q.Results() {
		rows += len(t.Rows)
	}
	return rows, q, d, nil
}

// Faults runs experiment T11: recovery from injected message loss. Three
// engine configurations — the classic engine, forward retry with backoff,
// and retry plus degraded-mode bounce — face the same seeded fault
// schedules at increasing drop rates; every configuration keeps the
// orphan reaper so runs always terminate. The paper's protocol (§2.8)
// only *detects* failure passively; this experiment measures how much of
// the answer each recovery layer preserves.
func Faults(w io.Writer) (*FaultsOut, error) {
	fmt.Fprintln(w, "T11: fault injection and recovery (robustness; paper §2.8, §7.1)")
	out := &FaultsOut{}
	seeds := []int64{1, 2, 3}

	configs := []struct {
		name   string
		srv    server.Options
		hybrid bool
	}{
		{"classic", server.Options{}, false},
		{"retry", server.Options{Retry: faultRetry}, false},
		{"retry+bounce", server.Options{Retry: faultRetry}, true},
	}

	var rows [][]string
	for _, drop := range []float64{0, 0.05, 0.10, 0.20} {
		for _, cfg := range configs {
			cell := FaultsRow{Drop: drop, Config: cfg.name}
			var completeness float64
			for _, seed := range seeds {
				web := faultsWeb(seed)
				src := faultsQuery(web.First())
				want, err := faultsTruth(web, src)
				if err != nil {
					return nil, err
				}
				got, q, d, err := faultsRun(core.Config{
					Web: web,
					Net: netsim.Options{Faults: netsim.FaultPlan{Seed: seed, Drop: drop, Sever: drop / 5}},
					Exec: core.ExecConfig{
						Server:    cfg.srv,
						Hybrid:    cfg.hybrid,
						ReapGrace: 400 * time.Millisecond,
					},
				}, src)
				if err != nil {
					return nil, err
				}
				completeness += float64(got) / float64(want)
				sn := d.Metrics().Snapshot()
				cell.Retries += sn.Retries
				cell.Bounced += sn.Bounced
				cell.Reaped += sn.CHTReaped
				cell.Dropped += d.Network().Stats().Snapshot().Total().Dropped
				if q == nil {
					cell.Failed++
				}
				d.Close()
			}
			cell.Completeness = completeness / float64(len(seeds))
			out.Sweep = append(out.Sweep, cell)
			rows = append(rows, []string{
				fmt.Sprintf("%.0f%%", drop*100),
				cell.Config,
				fmt.Sprintf("%.1f%%", cell.Completeness*100),
				fmt.Sprintf("%d", cell.Retries),
				fmt.Sprintf("%d", cell.Bounced),
				fmt.Sprintf("%d", cell.Reaped),
				fmt.Sprintf("%d", cell.Dropped),
				fmt.Sprintf("%d", cell.Failed),
			})
		}
	}
	fmt.Fprintf(w, "\nrecovery sweep (%d seeds per cell, 40-site tree, selective query):\n", len(seeds))
	table(w, []string{"drop", "engine", "answer", "retries", "bounced", "reaped", "frames lost", "no answer"}, rows)

	// Degraded mode: one leaf site down for the whole run. Retries
	// exhaust, the clone bounces, the fallback's downloads fail too — the
	// engine returns exactly the reachable fraction, cleanly accounted.
	web := webgraph.Tree(webgraph.TreeOpts{Fanout: 2, Depth: 3, PagesPerSite: 1, MarkerFrac: 1.0, Seed: 5})
	src := faultsQuery(web.First())
	const victim = "t14.example"
	want, err := faultsTruth(web, src)
	if err != nil {
		return nil, err
	}
	out.DownExpected = want
	got, q, d, err := faultsRun(core.Config{
		Web: web,
		Net: netsim.Options{Faults: netsim.FaultPlan{
			Windows: []netsim.DownWindow{{Endpoint: victim, From: 0, Until: time.Hour}},
		}},
		Exec: core.ExecConfig{
			Server:    server.Options{Retry: faultRetry},
			Hybrid:    true,
			ReapGrace: 400 * time.Millisecond,
		},
	}, src)
	if err != nil {
		return nil, err
	}
	out.DownRows = got
	// One page per site and every page carries the marker, so the victim
	// hosts exactly one of the answer rows.
	out.DownReachable = want - 1
	if q != nil {
		out.DownPartial = q.Partial()
	}
	d.Close()
	fmt.Fprintf(w, "\ndegraded mode (site %s down, retry+bounce engine):\n", victim)
	fmt.Fprintf(w, "  delivered %d of %d rows (reachable: %d); Partial=%v — the bounce path retired\n",
		out.DownRows, out.DownExpected, out.DownReachable, out.DownPartial)
	fmt.Fprintln(w, "  every entry itself, so the reaper had nothing to do.")

	// Silent crash: the site receives clones but its reports are
	// partitioned away. Only the client-side reaper can finish the query.
	dep, err := core.NewDeployment(core.Config{
		Web: webgraph.Campus(),
		Exec: core.ExecConfig{
			Server:    server.Options{Retry: server.RetryPolicy{Attempts: 2, Base: time.Millisecond}},
			ReapGrace: 300 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	const crashed = "dsl.serc.iisc.ernet.in"
	dep.Network().Block(crashed, "user", true)
	cq, err := dep.Run(webgraph.CampusDISQL, 30*time.Second)
	if err != nil {
		return nil, err
	}
	for _, t := range cq.Results() {
		out.CrashRows += len(t.Rows)
	}
	out.CrashReaped = cq.Stats().Reaped
	out.CrashPartial = cq.Partial()
	fmt.Fprintf(w, "\nsilent crash (campus run, %s cut off from the user mid-query):\n", crashed)
	fmt.Fprintf(w, "  delivered %d rows, reaped %d orphaned CHT entries, Partial=%v, unreachable=[%s]\n",
		out.CrashRows, out.CrashReaped, out.CrashPartial, strings.Join(cq.Unreachable(), " "))
	return out, nil
}
