package client

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"webdis/internal/cluster"
	"webdis/internal/server"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// entry builds a CHT entry for node at a one-stage state.
func entry(node string, seq int64) wire.CHTEntry {
	return wire.CHTEntry{Node: node, State: wire.State{NumQ: 1, Rem: "_"}, Origin: "user/q1", Seq: seq}
}

// TestMergeRejectsStaleIncarnation pins the stale-reply guard: a result
// frame stamped with a replica incarnation older than the membership's
// current registration is dropped whole (its retirements would collide
// with the replay's), while a frame from the current incarnation merges.
func TestMergeRejectsStaleIncarnation(t *testing.T) {
	m := cluster.New(cluster.Options{})
	m.AddSite("a.example", 2)
	ep := cluster.ReplicaEndpoint("a.example", 1)
	m.Register(ep) // incarnation 1: the replica that sent the frame
	m.Register(ep) // incarnation 2: its restart

	e := entry("http://a.example/x.html", 1)
	other := entry("http://a.example/y.html", 2)
	q := &Query{c: &Client{}, cluster: m, met: &server.Metrics{}, cht: newCHT()}
	q.cht.announce(e)
	q.cht.announce(other)

	stale := &wire.ResultMsg{
		From: ep, Inc: 1,
		Updates: []wire.CHTUpdate{{Processed: e}},
	}
	q.merge(stale)
	if q.stats.StaleRejected != 1 {
		t.Fatalf("StaleRejected = %d, want 1", q.stats.StaleRejected)
	}
	if q.stats.ResultMsgs != 0 || q.cht.counts[e] != 1 {
		t.Fatalf("stale frame was merged: msgs=%d count=%d", q.stats.ResultMsgs, q.cht.counts[e])
	}

	fresh := &wire.ResultMsg{
		From: ep, Inc: 2,
		Updates: []wire.CHTUpdate{{Processed: e}},
	}
	q.merge(fresh)
	if q.stats.ResultMsgs != 1 || q.cht.EntriesRetired != 1 {
		t.Fatalf("current-incarnation frame not merged: %+v", q.Stats())
	}
	if q.cht.counts[e] != 0 {
		t.Fatalf("entry not retired by the fresh frame: count=%d", q.cht.counts[e])
	}
}

// TestRetireAbsorbsReplayedDuplicate pins the replayed-entry dedup: when
// both the replay's report and the crashed replica's surviving report
// retire the same entry, the second retirement is absorbed — but ONLY
// for replayed entries at count zero. Everything else keeps the legal
// report-overtakes-announce negative.
func TestRetireAbsorbsReplayedDuplicate(t *testing.T) {
	e := entry("http://a.example/x.html", 1)
	c := newCHT()
	c.announce(e)
	c.markReplayed([]wire.CHTEntry{e})
	c.retire(e, wire.FateProcessed) // the replay's own retirement balances the entry
	if c.counts[e] != 0 || c.nonzero != 0 {
		t.Fatalf("first retirement did not balance: count=%d nonzero=%d", c.counts[e], c.nonzero)
	}
	c.retire(e, wire.FateProcessed) // the corpse's report arrives after all
	if c.DupRetired != 1 {
		t.Fatalf("DupRetired = %d, want 1", c.DupRetired)
	}
	// A bounce of the replayed entry is absorbed too: the replay accounted
	// for it, so nothing was lost.
	if !c.writeOff(e) || c.DupRetired != 2 || c.Reaped != 0 || len(c.Unreachable) != 0 {
		t.Fatalf("write-off of a replayed duplicate: dups %d reaped %d unreachable %v", c.DupRetired, c.Reaped, c.Unreachable)
	}
	if c.counts[e] != 0 || c.nonzero != 0 {
		t.Fatalf("duplicate retirement dented the ledger: count=%d nonzero=%d", c.counts[e], c.nonzero)
	}

	// A non-replayed entry still books the transient negative.
	other := entry("http://a.example/y.html", 2)
	c.retire(other, wire.FateProcessed)
	if c.GhostReports != 1 || c.counts[other] != -1 {
		t.Fatalf("overtaking report mishandled: ghosts=%d count=%d", c.GhostReports, c.counts[other])
	}
}

// TestCHTProgressIgnoresGhosts pins Progress below 1 while an entry is
// live: a report that overtook its announcement is not yet a retirement
// of anything announced. Counting it read the query as done (1/1), and
// then past done (2/1), with the root still live.
func TestCHTProgressIgnoresGhosts(t *testing.T) {
	root := entry("http://a.example/r.html", 1)
	a, c1, c2 := entry("http://b.example/a.html", 2), entry("http://c.example/c1.html", 3), entry("http://c.example/c2.html", 4)
	c := newCHT()
	c.announce(root)
	for _, ghost := range []wire.CHTEntry{c1, c2} {
		c.retire(ghost, wire.FateProcessed)
		if p := c.progress(); p != 0 {
			t.Fatalf("progress = %v after ghost %s, want 0", p, ghost.Node)
		}
	}
	// The root's report retires it and announces a and c1, matching one
	// ghost; a, and c2's announcement, are still outstanding.
	c.retire(root, wire.FateProcessed)
	c.announce(a)
	c.announce(c1)
	if p := c.progress(); p != 2.0/3 || c.drained() {
		t.Fatalf("progress = %v drained = %v with a live, want 2/3", p, c.drained())
	}
	// a's report retires it and announces c2: the table drains at 1.
	c.retire(a, wire.FateProcessed)
	c.announce(c2)
	if !c.drained() || c.progress() != 1 || c.EntriesRetired != c.EntriesAdded {
		t.Fatalf("drained = %v progress = %v retired %d of %d", c.drained(), c.progress(), c.EntriesRetired, c.EntriesAdded)
	}
}

// TestCHTReapCountsLiveEntries pins reap to the positive entries: an
// entry at +2 is two reaped clones, and a ghost at −1 — a clone that
// already reported — is none, nor is its site unreachable.
func TestCHTReapCountsLiveEntries(t *testing.T) {
	twice := entry("http://a.example/x.html", 1)
	ghost := entry("http://b.example/y.html", 2)
	c := newCHT()
	c.announce(twice)
	c.announce(twice)
	c.retire(ghost, wire.FateProcessed)
	if got := len(c.live()); got != 2 {
		t.Fatalf("live = %d entries, want 2", got)
	}
	n := c.reap()
	if sites := c.Unreachable; n != 2 || !slices.Equal(sites, []string{"a.example"}) {
		t.Fatalf("reap = %d %v, want 2 [a.example]", n, sites)
	}
	if !c.drained() || c.Reaped != 2 || len(c.counts) != 0 {
		t.Fatalf("after reap: drained = %v reaped = %d counts = %v", c.drained(), c.Reaped, c.counts)
	}
}

// TestCHTWriteOffBeforeAnnounce pins a write-off that overtakes its
// announcement: a bounce that reaches the user-site before the report of
// the parent that spawned the clone. The write-off counts and records its
// host at once, leaves a ghost, and the table drains when the parent's
// report announces the entry.
func TestCHTWriteOffBeforeAnnounce(t *testing.T) {
	parent := entry("http://a.example/p.html", 1)
	child := entry("http://b.example/c.html", 2)
	c := newCHT()
	c.announce(parent)
	c.writeOff(child)
	if c.Reaped != 1 || !slices.Equal(c.Unreachable, []string{"b.example"}) {
		t.Fatalf("write-off: reaped = %d unreachable = %v", c.Reaped, c.Unreachable)
	}
	if c.counts[child] != -1 || c.GhostReports != 1 || c.drained() {
		t.Fatalf("write-off left count %d ghosts %d drained %v, want a ghost and the parent live", c.counts[child], c.GhostReports, c.drained())
	}
	c.retire(parent, wire.FateProcessed)
	c.announce(child)
	if !c.drained() || c.EntriesRetired != c.EntriesAdded || c.Reaped != 1 {
		t.Fatalf("after the parent's report: drained = %v retired %d of %d reaped %d", c.drained(), c.EntriesRetired, c.EntriesAdded, c.Reaped)
	}
}

// TestStopTargetsSkipGhostSites pins the stop broadcast to the sites of
// live entries: a ghost's clone has already reported, so its site is not
// sent a StopMsg. Before the table stops, nothing is named.
func TestStopTargetsSkipGhostSites(t *testing.T) {
	c := newCHT()
	c.announce(entry("http://a.example/x.html", 1))
	c.retire(entry("http://b.example/y.html", 2), wire.FateProcessed)
	if got := c.stopTargets(true); got != nil {
		t.Fatalf("stop targets before the stop = %v, want none", got)
	}
	c.stop()
	if got := c.stopTargets(true); !slices.Equal(got, []string{"a.example"}) {
		t.Fatalf("stop targets = %v, want [a.example]", got)
	}
	c.announce(entry("http://c.example/z.html", 3))
	if got := c.stopTargets(true); !slices.Equal(got, []string{"c.example"}) {
		t.Fatalf("second round = %v, want only the new site [c.example]", got)
	}
}

// TestCHTModel runs random report interleavings over random clone trees
// against a reference multiset. Each clone's report retires it with a
// random fate and announces its children; the roots are announced first,
// as a submission does. Some live clones are replayed, and their duplicate
// retirement arrives after their report. Some clones are written off
// instead of reported — announced or not yet, as a bounce can overtake its
// parent's report — and their subtrees never exist. At random points the
// table is stopped and asked for its stop targets, with or without its
// live sites and with extra sites. In a third of the runs the reaper fires
// at a random step: it replays the live entries, round after round up to
// the bound, and then reaps.
//
// After every event the table must equal the reference, drain exactly when
// every report is in or written off, keep Progress in [0, 1) until then,
// count every write-off in Reaped (Partial is Reaped > 0), name exactly
// the written-off hosts Unreachable, and compose Err from exactly the
// fates seen plus ErrPartial iff Reaped > 0. Stop targets name only hosts
// of positive entries and the extra sites passed in, each site once; a
// replay returns exactly the positive entries, never a ghost. Every
// replayed duplicate is absorbed.
func TestCHTModel(t *testing.T) {
	type clone struct {
		e                  wire.CHTEntry
		children           []int
		announced, handled bool // handled: reported or written off
		replayed           bool
	}
	extras := []string{"proxy.example", "s1.example", ""}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		clones := make([]clone, 1+r.Intn(40))
		var roots []int
		for i := range clones {
			clones[i].e = wire.CHTEntry{
				Node:   fmt.Sprintf("http://s%d.example/p%d.html", r.Intn(4), r.Intn(5)),
				State:  wire.State{NumQ: 1 + r.Intn(2), Rem: []string{"G*2", "L"}[r.Intn(2)]},
				Origin: fmt.Sprintf("s%d.example/query", r.Intn(3)),
				Seq:    int64(1 + i),
			}
			if i == 0 || r.Intn(6) == 0 {
				roots = append(roots, i)
			} else {
				p := r.Intn(i)
				clones[p].children = append(clones[p].children, i)
			}
		}
		// subtree lists i and its descendants.
		var subtree func(i int) []int
		subtree = func(i int) []int {
			out := []int{i}
			for _, ch := range clones[i].children {
				out = append(out, subtree(ch)...)
			}
			return out
		}

		c := newCHT()
		ref := make(map[wire.CHTEntry]int)
		// live lists the reference's positive entries, n times each, sorted.
		live := func() []wire.CHTEntry {
			var out []wire.CHTEntry
			for e, n := range ref {
				for ; n > 0; n-- {
					out = append(out, e)
				}
			}
			slices.SortFunc(out, compareEntries)
			return out
		}
		announced := 0
		announce := func(i int) {
			clones[i].announced = true
			announced++
			c.announce(clones[i].e)
			ref[clones[i].e]++
		}
		for _, i := range roots {
			announce(i)
		}
		var seen [wire.FateShed + 1]bool // fates retired
		retire := func(e wire.CHTEntry) bool {
			fate := wire.FateProcessed
			if r.Intn(6) == 0 {
				fate = wire.Fate(1 + r.Intn(int(wire.FateShed)))
			}
			seen[fate] = true
			return c.retire(e, fate)
		}
		reapAt := -1 // the step the reaper fires at
		if seed%3 == 0 {
			reapAt = r.Intn(2 * len(clones))
		}
		pending := r.Perm(len(clones)) // reports, in delivery order
		var dups []int                 // duplicate retirements not yet delivered
		var lost []string              // hosts written off
		ghosts, delivered, writtenOff, rounds := 0, 0, 0, 0
		stopping, told := false, make(map[string]bool)
		for step := 0; len(pending) > 0 || len(dups) > 0; step++ {
			reaped := step == reapAt
			switch k := r.Intn(11); {
			case reaped:
				// The reaper: replay until the bound or a state outside
				// the query's stages refuses it, then write off the rest.
				stages := 1 + r.Intn(2)
				for {
					want := live()
					got := c.replay(stages)
					if rounds == maxReplayRounds || len(want) == 0 ||
						slices.ContainsFunc(want, func(e wire.CHTEntry) bool { return e.State.NumQ > stages }) {
						if got != nil {
							t.Fatalf("seed %d round %d: replay = %v, want none", seed, rounds, got)
						}
						break
					}
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d: replay = %v, want the positive entries %v", seed, rounds, got, want)
					}
					rounds++
					for i := range clones {
						if cl := &clones[i]; cl.announced && !cl.handled {
							cl.replayed = true
						}
					}
				}
				want := live()
				if n := c.reap(); n != len(want) {
					t.Fatalf("seed %d: reap = %d, want %d live", seed, n, len(want))
				}
				for _, e := range want {
					if h := webgraph.Host(e.Node); !slices.Contains(lost, h) {
						lost = append(lost, h)
					}
				}
				writtenOff += len(want)
				clear(ref)
				pending, dups = nil, nil // the stranded clones never report
			case k == 0:
				// Replay a live clone that has not been replayed yet.
				for _, i := range r.Perm(len(clones)) {
					if cl := &clones[i]; cl.announced && !cl.handled && !cl.replayed {
						cl.replayed = true
						c.markReplayed([]wire.CHTEntry{cl.e})
						break
					}
				}
			case k == 1 && len(dups) > 0:
				i := dups[0]
				dups = dups[1:]
				if !retire(clones[i].e) {
					t.Fatalf("seed %d: duplicate retirement of %v not absorbed", seed, clones[i].e)
				}
				delivered++
			case k == 2 && len(pending) > 0:
				// Write off a pending clone none of whose descendants has
				// reported: it was never processed, so they never exist.
				i := pending[r.Intn(len(pending))]
				sub := subtree(i)
				if slices.ContainsFunc(sub, func(j int) bool { return clones[j].handled }) {
					break
				}
				pending = slices.DeleteFunc(pending, func(j int) bool { return slices.Contains(sub, j) })
				cl := &clones[i]
				if !cl.announced {
					ghosts++
				}
				cl.handled = true
				writtenOff++
				c.writeOff(cl.e)
				ref[cl.e]--
				if h := webgraph.Host(cl.e.Node); !slices.Contains(lost, h) {
					lost = append(lost, h)
				}
			case k == 3:
				// Stop, sometimes, and ask for the sites to tell.
				if r.Intn(3) == 0 {
					c.stop()
					stopping = true
				}
				withLive, extra := r.Intn(2) == 0, extras[:r.Intn(len(extras)+1)]
				hosts := make(map[string]bool)
				for e, n := range ref {
					if n > 0 && withLive {
						hosts[webgraph.Host(e.Node)] = true
					}
				}
				for _, site := range extra {
					hosts[site] = site != ""
				}
				got := c.stopTargets(withLive, extra...)
				if !stopping && got != nil {
					t.Fatalf("seed %d step %d: stop targets %v before the stop", seed, step, got)
				}
				if !slices.IsSorted(got) {
					t.Fatalf("seed %d step %d: stop targets %v not sorted", seed, step, got)
				}
				for _, site := range got {
					if !hosts[site] || told[site] {
						t.Fatalf("seed %d step %d: stop target %q: a candidate %v, told before %v", seed, step, site, hosts[site], told[site])
					}
					told[site] = true
				}
				for site, ok := range hosts {
					if stopping && ok && !told[site] {
						t.Fatalf("seed %d step %d: %q never told to stop", seed, step, site)
					}
				}
			case len(pending) > 0:
				i := pending[0]
				pending = pending[1:]
				cl := &clones[i]
				if !cl.announced {
					ghosts++
				}
				cl.handled = true
				retire(cl.e)
				ref[cl.e]--
				for _, ch := range cl.children {
					announce(ch)
				}
				if cl.replayed {
					dups = append(dups, i)
				}
			}
			maps.DeleteFunc(ref, func(_ wire.CHTEntry, n int) bool { return n == 0 })
			if !maps.Equal(c.counts, ref) || c.nonzero != len(ref) {
				t.Fatalf("seed %d step %d: table %v nonzero %d, reference %v", seed, step, c.counts, c.nonzero, ref)
			}
			if c.drained() != (len(pending) == 0) {
				t.Fatalf("seed %d step %d: drained = %v with %d reports outstanding", seed, step, c.drained(), len(pending))
			}
			if p := c.progress(); !c.drained() && (p < 0 || p >= 1) {
				t.Fatalf("seed %d step %d: progress %v before the table drained", seed, step, p)
			}
			if c.Reaped != writtenOff {
				t.Fatalf("seed %d step %d: reaped = %d after %d write-offs", seed, step, c.Reaped, writtenOff)
			}
			if got, want := c.Unreachable, slices.Sorted(slices.Values(lost)); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: unreachable = %v, want %v", seed, step, got, want)
			}
			var want []error
			if seen[wire.FateShed] {
				want = append(want, ErrShed)
			}
			if writtenOff > 0 {
				want = append(want, ErrPartial)
			}
			if seen[wire.FateExpired] {
				want = append(want, ErrExpired)
			}
			if got, want := fmt.Sprint(c.err()), fmt.Sprint(errors.Join(want...)); got != want {
				t.Fatalf("seed %d step %d: err = %s, want %s", seed, step, got, want)
			}
		}
		if c.DupRetired != delivered || c.GhostReports != ghosts {
			t.Fatalf("seed %d: dups %d of %d, ghosts %d of %d", seed, c.DupRetired, delivered, c.GhostReports, ghosts)
		}
		if c.EntriesAdded != announced || c.EntriesRetired != announced || c.progress() != 1 {
			t.Fatalf("seed %d: added %d retired %d of %d announced", seed, c.EntriesAdded, c.EntriesRetired, announced)
		}
	}
}

// TestCHTAllocs pins the calls a report makes on a warm table at zero
// allocations: an announce, a retire with its fate — the entry itself is
// the key — and the stop-target check of a query that is not stopping.
func TestCHTAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := wire.CHTEntry{Node: "http://t3.example/p17.html", State: wire.State{NumQ: 2, Rem: "L*3·G"}, Origin: "t3.example/query", Seq: 123456789}
	c := newCHT()
	c.announce(entry("http://t3.example/p0.html", 1))
	c.announce(e)
	c.retire(e, wire.FateProcessed)
	if n := testing.AllocsPerRun(100, func() { c.announce(e); c.retire(e, wire.FateProcessed) }); n != 0 {
		t.Errorf("announce and retire: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.retire(e, wire.FateProcessed); c.announce(e) }); n != 0 {
		t.Errorf("ghost retire and its announce: %.0f allocations, want 0", n)
	}
	proxy := "proxy.example"
	if n := testing.AllocsPerRun(100, func() {
		c.announce(e)
		c.retire(e, wire.FateExpired)
		if c.stopTargets(true, proxy) != nil {
			t.Fatal("stop targets before the stop")
		}
	}); n != 0 {
		t.Errorf("announce, retire with a fate and a stop-target check: %.0f allocations, want 0", n)
	}
}
