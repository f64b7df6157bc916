package client

import (
	"testing"

	"webdis/internal/cluster"
	"webdis/internal/server"
	"webdis/internal/wire"
)

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

	e := wire.CHTEntry{
		Node:   "http://a.example/x.html",
		State:  wire.State{NumQ: 1, Rem: "_"},
		Origin: "user/q1", Seq: 1,
	}
	other := wire.CHTEntry{
		Node:   "http://a.example/y.html",
		State:  wire.State{NumQ: 1, Rem: "_"},
		Origin: "user/q1", Seq: 2,
	}
	q := &Query{
		cluster: m,
		met:     &server.Metrics{},
		counts:  map[string]int{e.Key(): 1, other.Key(): 1},
		nonzero: 2,
	}

	stale := &wire.ResultMsg{
		From: ep, Inc: 1,
		Updates: []wire.CHTUpdate{{Processed: e}},
	}
	q.merge(stale)
	if q.stats.StaleRejected != 1 {
		t.Fatalf("StaleRejected = %d, want 1", q.stats.StaleRejected)
	}
	if q.stats.ResultMsgs != 0 || q.counts[e.Key()] != 1 {
		t.Fatalf("stale frame was merged: msgs=%d count=%d", q.stats.ResultMsgs, q.counts[e.Key()])
	}

	fresh := &wire.ResultMsg{
		From: ep, Inc: 2,
		Updates: []wire.CHTUpdate{{Processed: e}},
	}
	q.merge(fresh)
	if q.stats.ResultMsgs != 1 || q.stats.EntriesRetired != 1 {
		t.Fatalf("current-incarnation frame not merged: %+v", q.stats)
	}
	if q.counts[e.Key()] != 0 {
		t.Fatalf("entry not retired by the fresh frame: count=%d", q.counts[e.Key()])
	}
}

// TestRetireAbsorbsReplayedDuplicate pins the replayed-key dedup: when
// both the replay's report and the crashed replica's surviving report
// retire the same entry, the second retirement is absorbed — but ONLY
// for replayed keys at count zero. Everything else keeps the legal
// report-overtakes-announce negative.
func TestRetireAbsorbsReplayedDuplicate(t *testing.T) {
	e := wire.CHTEntry{
		Node:   "http://a.example/x.html",
		State:  wire.State{NumQ: 1, Rem: "_"},
		Origin: "user/q1", Seq: 1,
	}
	q := &Query{
		met:      &server.Metrics{},
		counts:   make(map[string]int),
		entries:  make(map[string]wire.CHTEntry),
		replayed: make(map[string]bool),
	}
	q.addEntry(e)
	q.replayed[e.Key()] = true
	q.retire(e) // the replay's own retirement balances the entry
	if q.counts[e.Key()] != 0 || q.nonzero != 0 {
		t.Fatalf("first retirement did not balance: count=%d nonzero=%d", q.counts[e.Key()], q.nonzero)
	}
	q.retire(e) // the corpse's report arrives after all
	if q.stats.DupRetired != 1 {
		t.Fatalf("DupRetired = %d, want 1", q.stats.DupRetired)
	}
	if q.counts[e.Key()] != 0 || q.nonzero != 0 {
		t.Fatalf("duplicate retirement dented the ledger: count=%d nonzero=%d", q.counts[e.Key()], q.nonzero)
	}

	// A non-replayed key still books the transient negative.
	other := wire.CHTEntry{
		Node:   "http://a.example/y.html",
		State:  wire.State{NumQ: 1, Rem: "_"},
		Origin: "user/q1", Seq: 2,
	}
	q.retire(other)
	if q.stats.GhostReports != 1 || q.counts[other.Key()] != -1 {
		t.Fatalf("overtaking report mishandled: ghosts=%d count=%d",
			q.stats.GhostReports, q.counts[other.Key()])
	}
}
