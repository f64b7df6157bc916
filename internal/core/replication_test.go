package core

import (
	"strings"
	"testing"
	"time"

	"webdis/internal/cluster"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// TestReplicatedDeploymentBasics checks that a replicated deployment is
// observably the same engine: the answer matches the unreplicated run,
// every site runs its configured replica count, and the per-replica
// metrics keys appear alongside the seed's per-site keys.
func TestReplicatedDeploymentBasics(t *testing.T) {
	web := webgraph.Campus()

	ref, err := NewDeployment(Config{Web: web})
	if err != nil {
		t.Fatal(err)
	}
	rq, err := ref.Run(webgraph.CampusDISQL, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	want := rowSet(rq.Results())
	ref.Close()
	if len(want) == 0 {
		t.Fatal("empty unreplicated answer")
	}

	d, err := NewDeployment(Config{Web: web, Exec: ExecConfig{Replicas: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Cluster() == nil {
		t.Fatal("replicated deployment has no membership table")
	}
	for _, site := range web.Hosts() {
		reps := d.Replicas(site)
		if len(reps) != 2 {
			t.Fatalf("site %s runs %d replicas, want 2", site, len(reps))
		}
		if d.Server(site) != reps[0] {
			t.Fatalf("site %s: Server() is not replica 0", site)
		}
	}
	if got, want := len(d.Cluster().Snapshot()), 2*len(web.Hosts()); got != want {
		t.Fatalf("membership tracks %d endpoints, want %d", got, want)
	}

	q, err := d.Run(webgraph.CampusDISQL, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	got := rowSet(q.Results())
	if k, ok := subset(got, want); !ok {
		t.Fatalf("replicated answer has extra row %q", k)
	}
	if k, ok := subset(want, got); !ok {
		t.Fatalf("replicated answer missing row %q", k)
	}

	sn := d.SiteSnapshots()
	found := false
	for key := range sn {
		if strings.Contains(key, "@1") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("SiteSnapshots has no per-replica key: %v", keysOf(sn))
	}
}

func keysOf(m map[string]server.Snapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestReplicaKillStrandedCloneReplayed kills the root site's hashed
// replica while the very first clone is still in flight to it (the
// fabric's latency guarantees the frame has not landed): the clone dies
// with the replica, no report ever arrives, and after a silent grace
// window the reaper must reconstruct the stranded clone from the CHT
// mirror and replay it into the surviving replica. The full traversal
// then runs from there — the query completes CLEAN, with exactly the
// baseline rows and a zeroed ledger, not Partial.
func TestReplicaKillStrandedCloneReplayed(t *testing.T) {
	web := chaosWeb(21)
	want := baselineRows(t, web, chaosDISQL)
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}

	d, err := NewDeployment(Config{
		Web: web,
		Net: netsim.Options{Latency: 5 * time.Millisecond},
		Exec: ExecConfig{
			Server:    server.Options{Retry: chaosRetry},
			Replicas:  2,
			Cluster:   cluster.Options{SuspectAfter: 1, DownAfter: 1},
			ReapGrace: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q, err := d.SubmitDISQL(chaosDISQL)
	if err != nil {
		t.Fatal(err)
	}
	// The dispatch resolved the root site through the same rendezvous hash;
	// killing that replica now severs the in-flight clone with it.
	victim, ok := d.Cluster().Pick("t0.example", q.ID().String(), nil)
	if !ok {
		t.Fatal("pick failed")
	}
	d.Cluster().ReportSuccess(victim) // balance the peek's load increment
	d.Network().Kill(victim)

	if err := q.Wait(waitFor); err != nil {
		t.Fatalf("query did not complete after replica kill: %v", err)
	}
	got := rowSet(q.Results())
	if k, ok := subset(got, want); !ok {
		t.Fatalf("delivered row %q not in the baseline", k)
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want the full baseline %d (stats %+v)", len(got), len(want), q.Stats())
	}
	if q.Partial() {
		t.Errorf("replayed run marked Partial: %+v", q.Stats())
	}
	st := q.Stats()
	if st.Replays < 1 {
		t.Errorf("Replays = %d, want >= 1 (the stranded clone was never replayed)", st.Replays)
	}
	if q.LiveEntries() != 0 {
		t.Errorf("LiveEntries = %d after completion, want 0", q.LiveEntries())
	}
	if n := d.Metrics().Snapshot().ReplicaReplays; n < 1 {
		t.Errorf("metrics ReplicaReplays = %d, want >= 1", n)
	}
}

// TestReplicaKillMidTraversalFailsOver kills the hashed replica of a
// depth-1 site before the root's forward to it goes out: the server's
// send exhausts its retries against the corpse, re-resolves through the
// membership table, and delivers to the sibling — mid-traversal failover
// with zero lost rows and a clean (non-Partial) completion.
func TestReplicaKillMidTraversalFailsOver(t *testing.T) {
	web := chaosWeb(22)
	want := baselineRows(t, web, chaosDISQL)
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}

	d, err := NewDeployment(Config{
		Web: web,
		Net: netsim.Options{Latency: 5 * time.Millisecond},
		Exec: ExecConfig{
			Server:   server.Options{Retry: chaosRetry},
			Replicas: 2,
			// Park the prober: this test pins the send-outcome failover path,
			// and a probe demoting the corpse first would route around it
			// before any send ever failed.
			Cluster:   cluster.Options{SuspectAfter: 1, DownAfter: 1, ProbeEvery: time.Hour},
			ReapGrace: 400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q, err := d.SubmitDISQL(chaosDISQL)
	if err != nil {
		t.Fatal(err)
	}
	// t1.example is a depth-1 child of the root: its clone is forwarded by
	// t0's server with the query id as the routing key — the same pick.
	victim, ok := d.Cluster().Pick("t1.example", q.ID().String(), nil)
	if !ok {
		t.Fatal("pick failed")
	}
	d.Cluster().ReportSuccess(victim)
	d.Network().Kill(victim)

	if err := q.Wait(waitFor); err != nil {
		t.Fatalf("query did not complete after mid-traversal kill: %v", err)
	}
	got := rowSet(q.Results())
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want the full baseline %d (lost rows on failover; stats %+v)",
			len(got), len(want), q.Stats())
	}
	if k, ok := subset(got, want); !ok {
		t.Fatalf("delivered row %q not in the baseline", k)
	}
	if q.Partial() {
		t.Errorf("failover run marked Partial: %+v", q.Stats())
	}
	if q.LiveEntries() != 0 {
		t.Errorf("LiveEntries = %d after completion, want 0", q.LiveEntries())
	}
	if n := d.Metrics().Snapshot().Failovers; n < 1 {
		t.Errorf("metrics Failovers = %d, want >= 1 (forward never re-resolved)", n)
	}
}

// TestReplicaKillRootSiteFailsOverAtUserSite kills the root site's hashed
// replica before the query is submitted: the user-site's own root
// dispatch fails against the corpse, re-resolves through the membership
// table and delivers to the sibling — the client-side failover, where the
// other failover tests pin the servers' forwards.
func TestReplicaKillRootSiteFailsOverAtUserSite(t *testing.T) {
	web := chaosWeb(23)
	want := baselineRows(t, web, chaosDISQL)
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}

	d, err := NewDeployment(Config{
		Web: web,
		Exec: ExecConfig{
			Server:   server.Options{Retry: chaosRetry},
			Replicas: 2,
			// Park the prober, so the first send to the corpse is what
			// demotes it, not a probe.
			Cluster:   cluster.Options{SuspectAfter: 1, DownAfter: 1, ProbeEvery: time.Hour},
			ReapGrace: 400 * time.Millisecond,
			Trace:     true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// The first query of the deployment's client; the root dispatch picks
	// with its id as the routing key.
	id := wire.QueryID{User: "user", Site: "user/c", Num: 1}
	victim, ok := d.Cluster().Pick("t0.example", id.String(), nil)
	if !ok {
		t.Fatal("pick failed")
	}
	d.Cluster().ReportSuccess(victim) // balance the peek's load increment
	d.Network().Kill(victim)

	q, err := d.SubmitDISQL(chaosDISQL)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID() != id {
		t.Fatalf("query id = %v, want %v", q.ID(), id)
	}
	if err := q.Wait(waitFor); err != nil {
		t.Fatalf("query did not complete after the root replica kill: %v", err)
	}
	if n := q.Stats().Failovers; n != 1 {
		t.Errorf("Failovers = %d, want 1 (the root dispatch re-resolved once)", n)
	}
	failover := false
	for _, e := range q.TraceEvents() {
		if e.Kind == trace.Failover && e.Site == "user" {
			failover = true
		}
	}
	if !failover {
		t.Error("no failover event in the client journal")
	}
	got := rowSet(q.Results())
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want the full baseline %d (stats %+v)", len(got), len(want), q.Stats())
	}
	if k, ok := subset(got, want); !ok {
		t.Fatalf("delivered row %q not in the baseline", k)
	}
	if q.Partial() {
		t.Errorf("failover run marked Partial: %+v", q.Stats())
	}
	if q.LiveEntries() != 0 {
		t.Errorf("LiveEntries = %d after completion, want 0", q.LiveEntries())
	}
}

// TestReplicaStopOverTCP runs the replicated engine over real loopback
// sockets and stops one replica server mid-query. Whatever the exact
// interleaving (the clone may beat the stop, die with it, or never reach
// it), the invariants hold: delivered rows are a subset of the baseline,
// the query terminates with a drained ledger, and any shortfall is
// booked as an explicit Partial completion — rows never vanish silently.
func TestReplicaStopOverTCP(t *testing.T) {
	web := webgraph.Tree(webgraph.TreeOpts{
		Fanout: 2, Depth: 2, PagesPerSite: 1, MarkerFrac: 1.0, Seed: 9,
	})
	const src = `
select d.url
from document d such that "http://t0.example/p0.html" N|(G*2) d
where d.text contains "` + webgraph.Marker + `"`
	want := baselineRows(t, web, src)
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}

	d, err := NewDeployment(Config{
		Web: web,
		Exec: ExecConfig{
			Transport: netsim.NewTCP(),
			Server:    server.Options{Retry: chaosRetry},
			Replicas:  2,
			Cluster:   cluster.Options{SuspectAfter: 1, DownAfter: 1},
			ReapGrace: 400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q, err := d.SubmitDISQL(src)
	if err != nil {
		t.Fatal(err)
	}
	victim, ok := d.Cluster().Pick("t1.example", q.ID().String(), nil)
	if !ok {
		t.Fatal("pick failed")
	}
	d.Cluster().ReportSuccess(victim)
	idx := 0
	if strings.Contains(victim, "@1") {
		idx = 1
	}
	d.Replicas("t1.example")[idx].Stop()

	if err := q.Wait(waitFor); err != nil {
		t.Fatalf("query did not terminate after replica stop over TCP: %v", err)
	}
	got := rowSet(q.Results())
	if k, ok := subset(got, want); !ok {
		t.Fatalf("delivered row %q not in the baseline", k)
	}
	if q.LiveEntries() != 0 {
		t.Errorf("LiveEntries = %d after completion, want 0", q.LiveEntries())
	}
	if len(got) != len(want) && !q.Partial() && q.Stats().Reaped == 0 {
		t.Errorf("lost %d rows with no Partial marking or reap accounting (stats %+v)",
			len(want)-len(got), q.Stats())
	}
}

// TestReplicaKillReplaysGroupedQuery kills the root site's hashed replica
// while the first clone of a grouped query is in flight to it, as
// TestReplicaKillStrandedCloneReplayed does for a plain one. The reaper
// replays the stranded clone to the surviving replica, and the replay
// must carry the query's plan fragment like the root clone did: the
// user-site folds only partial state, so a replay that shipped raw rows
// would lose every group below it. The answer equals the reference.
func TestReplicaKillReplaysGroupedQuery(t *testing.T) {
	web := chaosWeb(21)
	src := `select d.url, count(*)
from document d such that "http://t0.example/p0.html" N|(G*3) d
where d.text contains "` + webgraph.Marker + `"
group by d.url`
	want := reference(t, web, src)

	d, err := NewDeployment(Config{
		Web: web,
		Net: netsim.Options{Latency: 5 * time.Millisecond},
		Exec: ExecConfig{
			Server:    server.Options{Retry: chaosRetry},
			Replicas:  2,
			Cluster:   cluster.Options{SuspectAfter: 1, DownAfter: 1},
			ReapGrace: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q, err := d.SubmitDISQL(src)
	if err != nil {
		t.Fatal(err)
	}
	victim, ok := d.Cluster().Pick("t0.example", q.ID().String(), nil)
	if !ok {
		t.Fatal("pick failed")
	}
	d.Cluster().ReportSuccess(victim) // balance the peek's load increment
	d.Network().Kill(victim)

	if err := q.Wait(waitFor); err != nil {
		t.Fatalf("query did not complete after replica kill: %v", err)
	}
	if q.Stats().Replays < 1 {
		t.Fatalf("Replays = %d, want >= 1 (the stranded clone was never replayed)", q.Stats().Replays)
	}
	if q.Partial() {
		t.Errorf("replayed run marked Partial: %+v", q.Stats())
	}
	if got := renderResults(q); got != want {
		t.Errorf("replayed grouped query differs from the reference\nengine:\n%s\nreference:\n%s", got, want)
	}
}
