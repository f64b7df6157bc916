package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"webdis/internal/client"
	"webdis/internal/core"
	"webdis/internal/netsim"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
)

// TracingOut is the T12 result.
type TracingOut struct {
	// Campus journey reconstruction.
	Spans    int  // clone messages in the reconstructed tree
	Complete bool // every span accounted for (no in-flight/lost)
	MaxHop   int

	// Tracing overhead on the sweep web (min over repetitions).
	Baseline time.Duration
	Traced   time.Duration
	Overhead float64 // (traced-baseline)/baseline
	Events   int     // journal events of one traced run

	// Fault localization: lost rows attributed to failed edges.
	LostRows     int
	LostSpans    int
	Terminated   int
	FaultSeed    int64
	LostEdges    map[[2]string]int // per (from-site, dest-site), from the journey
	FaultedEdges map[[2]string]int // ground truth: injected drops+severs per edge
	Localized    bool              // every attributed edge really faulted
}

// siteOfEndpoint maps a transport endpoint back to its site name
// ("t3.example/query" -> "t3.example", "user/c" -> "user").
func siteOfEndpoint(ep string) string {
	if i := strings.IndexByte(ep, '/'); i >= 0 {
		return ep[:i]
	}
	return ep
}

// kindTable prints the fabric's per-kind message mix.
func kindTable(w io.Writer, title string, byKind map[string]int64) {
	if len(byKind) == 0 {
		return
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var rows [][]string
	for _, k := range kinds {
		rows = append(rows, []string{k, fmt.Sprintf("%d", byKind[k])})
	}
	fmt.Fprintf(w, "\n%s\n", title)
	table(w, []string{"message kind", "count"}, rows)
}

// Tracing runs experiment T12: the causal tracing subsystem exercised
// three ways. First the campus execution is replayed with tracing on and
// its journey — clone tree and Figure-7 traversal — is reconstructed from
// the site journals. Then tracing's overhead is measured on the T11 sweep
// web (min over repetitions, traced vs untraced). Finally faults are
// injected with the classic (no-recovery) engine and the journey's lost
// spans are checked against the fabric's ground-truth fault ledger: the
// trace must attribute the missing rows to exactly the edges that failed.
func Tracing(w io.Writer) (*TracingOut, error) {
	fmt.Fprintln(w, "T12: causal tracing — journey reconstruction, overhead, fault localization")
	out := &TracingOut{}

	// --- Part 1: the campus journey vs Figure 7 -----------------------
	d, err := core.NewDeployment(core.Config{
		Web:  webgraph.Campus(),
		Exec: core.ExecConfig{NoDocService: true, Trace: true},
	})
	if err != nil {
		return nil, err
	}
	q, err := d.Run(webgraph.CampusDISQL, 30*time.Second)
	if err != nil {
		d.Close()
		return nil, err
	}
	jy := d.Journey(q)
	out.Spans = len(jy.Spans)
	out.Complete = jy.Complete()
	jy.Walk(func(n *trace.SpanNode, _ int) {
		if n.Hop > out.MaxHop {
			out.MaxHop = n.Hop
		}
	})

	fmt.Fprintln(w, "\ncampus clone tree (reconstructed from the site journals):")
	fmt.Fprint(w, jy.Tree())
	fmt.Fprintln(w, "\ntraversal regenerated from the journey (Figure 7):")
	fmt.Fprint(w, jy.FormatTraversal())
	fmt.Fprintf(w, "\n%d spans, complete=%v, max hop %d\n", out.Spans, out.Complete, out.MaxHop)
	kindTable(w, "message mix of the traced campus run (netsim per-kind counts):",
		d.Network().Stats().Snapshot().Total().ByKind)
	d.Close()

	// --- Part 2: overhead ---------------------------------------------
	web := faultsWeb(7)
	src := faultsQuery(web.First())
	const reps = 5
	run := func(traced bool) (time.Duration, int, error) {
		best := time.Duration(-1)
		events := 0
		for i := 0; i < reps; i++ {
			dep, err := core.NewDeployment(core.Config{
				Web: web, Exec: core.ExecConfig{NoDocService: true, Trace: traced},
			})
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			if _, err := dep.Run(src, 30*time.Second); err != nil {
				dep.Close()
				return 0, 0, err
			}
			el := time.Since(start)
			if best < 0 || el < best {
				best = el
			}
			if traced {
				events = len(dep.TraceEvents())
			}
			dep.Close()
		}
		return best, events, nil
	}
	base, _, err := run(false)
	if err != nil {
		return nil, err
	}
	traced, events, err := run(true)
	if err != nil {
		return nil, err
	}
	out.Baseline, out.Traced, out.Events = base, traced, events
	out.Overhead = float64(traced-base) / float64(base)
	fmt.Fprintf(w, "\noverhead (40-site tree, min of %d runs): untraced %v, traced %v -> %+.1f%% (%d journal events per run)\n",
		reps, base.Round(time.Microsecond), traced.Round(time.Microsecond), out.Overhead*100, events)

	// --- Part 3: fault localization -----------------------------------
	// The classic engine (no retry, no bounce) under seeded frame loss:
	// every vanished clone must show up in the journey as a lost span
	// whose (from, dest) edge really did drop or sever a frame.
	fw := faultsWeb(3)
	fsrc := faultsQuery(fw.First())
	want, err := faultsTruth(fw, fsrc)
	if err != nil {
		return nil, err
	}
	// Scan fault seeds for a run that survives the initial dispatch but
	// still loses rows — some schedules kill the very first clone (total
	// loss, nothing to trace), others drop nothing at all.
	var dep *core.Deployment
	var fq *client.Query
	got := 0
	for seed := int64(1); seed <= 32; seed++ {
		dep, err = core.NewDeployment(core.Config{
			Web: fw,
			Net: netsim.Options{Faults: netsim.FaultPlan{Seed: seed, Drop: 0.12, Sever: 0.02}},
			Exec: core.ExecConfig{
				ReapGrace: 400 * time.Millisecond,
				Trace:     true,
			},
		})
		if err != nil {
			return nil, err
		}
		fq, err = dep.Run(fsrc, 30*time.Second)
		if fq == nil {
			dep.Close()
			if err == nil {
				return nil, fmt.Errorf("experiments: fault run returned no query")
			}
			continue // initial dispatch lost: try the next schedule
		}
		got = 0
		for _, t := range fq.Results() {
			got += len(t.Rows)
		}
		out.FaultSeed = seed
		if got < want {
			break
		}
		dep.Close()
		dep = nil
	}
	if dep == nil {
		return nil, fmt.Errorf("experiments: no fault seed produced a lossy traceable run")
	}
	defer dep.Close()
	out.LostRows = want - got
	fjy := dep.Journey(fq)
	out.LostEdges = fjy.LostEdges()
	out.LostSpans = len(fjy.Lost())
	// A termination is a failed result dispatch: the loss sits on the
	// processing site's edge to the user-site collector.
	user := siteOfEndpoint(fq.ID().Site)
	for _, e := range fjy.Events {
		if e.Kind == trace.Terminate {
			out.Terminated++
			out.LostEdges[[2]string{e.Site, user}]++
		}
	}

	// Ground truth: the fabric's per-edge failure ledger, keyed by site.
	// Every failed send in this fabric is recorded — dropped or severed
	// frames, or a refused dial (e.g. the collector already closed).
	out.FaultedEdges = make(map[[2]string]int)
	sn := dep.Network().Stats().Snapshot()
	for _, e := range sn.SortedEdges() {
		c := sn.Edges[e]
		if n := c.Dropped + c.Severed + c.Refused; n > 0 {
			k := [2]string{siteOfEndpoint(e.From), siteOfEndpoint(e.To)}
			out.FaultedEdges[k] += int(n)
		}
	}
	out.Localized = true
	var rows [][]string
	var keys [][2]string
	for k := range out.LostEdges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		faulted := out.FaultedEdges[k]
		if faulted == 0 {
			out.Localized = false
		}
		rows = append(rows, []string{
			k[0], k[1],
			fmt.Sprintf("%d", out.LostEdges[k]),
			fmt.Sprintf("%d", faulted),
		})
	}
	fmt.Fprintf(w, "\nfault localization (classic engine, 12%% drop + 2%% sever, seed %d):\n", out.FaultSeed)
	fmt.Fprintf(w, "  answer %d of %d rows (%d lost); journey: %d lost spans, %d terminations\n",
		got, want, out.LostRows, out.LostSpans, out.Terminated)
	if len(rows) > 0 {
		table(w, []string{"from site", "dest site", "losses (trace)", "failures (ground truth)"}, rows)
	}
	fmt.Fprintf(w, "  every trace-attributed edge verified against the fault ledger: %v\n", out.Localized)
	return out, nil
}
