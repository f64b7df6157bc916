package client

import (
	"cmp"
	"errors"
	"slices"
	"strings"

	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// cht is one query's Current Hosts Table (Section 2.7.1, Figure 2): a
// signed counting multiset of clone instances, keyed by the entry itself.
// Announcements add one, reports retire one, and the table is drained when
// every count is zero (see the package comment for why that is sound).
//
// The table also takes the decisions of how a query ends: how its answer
// is qualified (err, from the fates retired and the entries written off),
// which sites to tell to stop (stopTargets), and whether the entries a
// reaper finds stranded are replayed or written off (replay, reap). It has
// no clock and no lock: the owning Query holds q.mu around every call, and
// keeps the reaper's timer and every send.
type cht struct {
	counts  map[wire.CHTEntry]int // signed; a count back at zero is deleted
	nonzero int                   // keys with a nonzero count
	// replayed marks the instances a replay re-dispatched to a surviving
	// replica, scoping the duplicate-retirement absorption to them.
	replayed map[wire.CHTEntry]bool
	replays  int // replay rounds spent

	fates    [wire.FateShed + 1]int // retirements by the fate reported
	stopping bool                   // the query's clones are to be stopped
	told     map[string]bool        // the sites sent a StopMsg

	EntriesAdded   int      // announcements
	EntriesRetired int      // retirements matched with an announcement
	GhostReports   int      // retirements that overtook their announcement
	DupRetired     int      // second retirements of replayed entries, absorbed
	PeakLive       int      // the most keys nonzero at once
	Reaped         int      // entries written off
	Unreachable    []string // sorted hosts of the written-off entries
}

func newCHT() cht {
	return cht{counts: make(map[wire.CHTEntry]int)}
}

// announce enters one instance of e: a root before its dispatch, or a
// child named by its parent's report.
func (t *cht) announce(e wire.CHTEntry) {
	t.EntriesAdded++
	if t.bump(e, +1) <= 0 {
		// The instance's own report came first: it is matched now.
		t.EntriesRetired++
	}
	t.PeakLive = max(t.PeakLive, t.nonzero)
}

// retire removes one instance of e on its report, counting the fate the
// report carries. It reports whether the retirement was a duplicate of a
// replayed entry, which it absorbs.
func (t *cht) retire(e wire.CHTEntry, fate wire.Fate) bool {
	t.fates[fate]++
	return t.take(e)
}

// take is retire without a fate: a write-off shares it.
func (t *cht) take(e wire.CHTEntry) bool {
	n := t.counts[e]
	if n <= 0 && t.replayed[e] {
		// Both the replay and the original (its report surviving the crash
		// after all, or two replicas each processing one copy) accounted
		// the entry. The first retirement balanced it. For every entry
		// that was not replayed a negative count is the legal
		// report-overtakes-announce asynchrony and must stand.
		t.DupRetired++
		return true
	}
	if n > 0 {
		t.EntriesRetired++
	} else {
		t.GhostReports++
	}
	t.bump(e, -1)
	return false
}

// bump adds delta to e's count and returns the new count.
func (t *cht) bump(e wire.CHTEntry, delta int) int {
	old := t.counts[e]
	n := old + delta
	switch {
	case n == 0:
		delete(t.counts, e)
		t.nonzero--
	case old == 0:
		t.counts[e] = n
		t.nonzero++
	default:
		t.counts[e] = n
	}
	return n
}

// markReplayed records that the given instances were re-dispatched.
func (t *cht) markReplayed(entries []wire.CHTEntry) {
	if t.replayed == nil {
		t.replayed = make(map[wire.CHTEntry]bool)
	}
	for _, e := range entries {
		t.replayed[e] = true
	}
}

// drained reports whether every count is zero.
func (t *cht) drained() bool { return t.nonzero == 0 }

// progress is the fraction of announced entries whose retirement is in.
// It stays below 1 while any entry is live: a ghost retirement counts only
// once its announcement arrives.
func (t *cht) progress() float64 {
	if t.EntriesAdded == 0 {
		return 0
	}
	return float64(t.EntriesRetired) / float64(t.EntriesAdded)
}

// live returns the entries with a positive count, an entry at n appearing
// n times, sorted. Ghost entries, below zero, belong to clones that have
// already reported.
func (t *cht) live() []wire.CHTEntry {
	var out []wire.CHTEntry
	for e, n := range t.counts {
		for ; n > 0; n-- {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, compareEntries)
	return out
}

// writeOff declares one instance of e lost. It retires as a report would
// (one that overtook its announcement stays a ghost, matched when the
// announcement lands), counts in Reaped, and makes its host Unreachable.
// A duplicate of a replayed entry is absorbed instead, as by retire: the
// replay accounted for it. It reports whether it absorbed one.
func (t *cht) writeOff(e wire.CHTEntry) bool {
	if t.take(e) {
		return true
	}
	t.Reaped++
	h := webgraph.Host(e.Node)
	if i, found := slices.BinarySearch(t.Unreachable, h); !found {
		t.Unreachable = slices.Insert(t.Unreachable, i, h)
	}
	return false
}

// reap writes off every live entry and empties the table of ghosts. It
// returns the number of entries written off.
func (t *cht) reap() int {
	live := t.live()
	for _, e := range live {
		t.writeOff(e)
	}
	clear(t.counts)
	t.nonzero = 0
	return len(live)
}

// maxReplayRounds bounds how many reap-grace windows the reaper spends
// replaying stranded clones before conceding coverage. Each round only
// fires after a full idle grace window, so the bound caps added latency
// at a few windows while still surviving a crash during a replay.
const maxReplayRounds = 3

// replay decides whether the live entries, stranded for a full reap-grace
// window by a crashed replica, are resumed rather than written off. It
// returns them marked replayed: rebuilt with their exact serials, the
// clones retire what the corpse stranded, not a fresh generation. It
// returns nil, changing nothing, once maxReplayRounds are spent or when a
// state lies outside the query's stages: replay would lose it silently,
// so the honest reap follows.
func (t *cht) replay(stages int) []wire.CHTEntry {
	if t.replays >= maxReplayRounds {
		return nil
	}
	live := t.live()
	if len(live) == 0 || slices.ContainsFunc(live, func(e wire.CHTEntry) bool {
		return e.State.NumQ <= 0 || e.State.NumQ > stages
	}) {
		return nil
	}
	t.replays++
	t.markReplayed(live)
	return live
}

// stop marks the query's clones to be stopped.
func (t *cht) stop() { t.stopping = true }

// stopTargets returns, once stopping, the sites not yet told to stop,
// sorted, and marks them told: the hosts of live entries if live is set
// (a ghost's clone has already reported), and the non-empty extra sites.
// Before the stop it returns nil and allocates nothing.
func (t *cht) stopTargets(live bool, extra ...string) []string {
	if !t.stopping {
		return nil
	}
	var sites []string
	if live {
		for e, n := range t.counts {
			if n > 0 {
				sites = t.tell(sites, webgraph.Host(e.Node))
			}
		}
	}
	for _, site := range extra {
		sites = t.tell(sites, site)
	}
	slices.Sort(sites)
	return sites
}

// tell appends site to sites unless it is empty or already told.
func (t *cht) tell(sites []string, site string) []string {
	if site == "" || t.told[site] {
		return sites
	}
	if t.told == nil {
		t.told = make(map[string]bool)
	}
	t.told[site] = true
	return append(sites, site)
}

// err types how the answer is qualified, joined: ErrShed when a site
// refused the query under admission control, ErrPartial when entries were
// written off, ErrExpired when the budget clipped clones. Nil for a whole
// answer; a STOPPED fate qualifies nothing, the user asked for it.
func (t *cht) err() error {
	var errs []error
	if t.fates[wire.FateShed] > 0 {
		errs = append(errs, ErrShed)
	}
	if t.Reaped > 0 {
		errs = append(errs, ErrPartial)
	}
	if t.fates[wire.FateExpired] > 0 {
		errs = append(errs, ErrExpired)
	}
	return errors.Join(errs...)
}

// compareStates orders states by NumQ, then Rem.
func compareStates(a, b wire.State) int {
	return cmp.Or(cmp.Compare(a.NumQ, b.NumQ), strings.Compare(a.Rem, b.Rem))
}

func compareEntries(a, b wire.CHTEntry) int {
	return cmp.Or(strings.Compare(a.Node, b.Node), compareStates(a.State, b.State),
		strings.Compare(a.Origin, b.Origin), cmp.Compare(a.Seq, b.Seq))
}
