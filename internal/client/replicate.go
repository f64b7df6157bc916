package client

import (
	"sort"
	"strconv"

	"webdis/internal/nodeproc"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// This file is the user-site half of replica routing: failover-aware
// dispatch through the client's sender (Sender.SendSite), and the
// reaper's replay of clones stranded inside a crashed replica.

// maxReplayRounds bounds how many reap-grace windows the reaper spends
// replaying stranded clones before conceding coverage. Each round only
// fires after a full idle grace window, so the bound caps added latency
// at a few windows while still surviving a crash during a replay.
const maxReplayRounds = 3

// sendSite delivers one clone to the named logical site through the
// client's sender, failing over to the next live replica when a send
// fails, and books the failovers on the query. Replicas in exclude (the
// replay rotation's memory) are not picked. It reports the endpoint that
// took the clone.
func (q *Query) sendSite(site string, msg *wire.CloneMsg, exclude map[string]bool) (string, error) {
	ep, failovers, err := q.c.out.SendSite(site, msg, exclude)
	if failovers > 0 {
		q.mu.Lock()
		q.stats.Failovers += failovers
		q.mu.Unlock()
	}
	return ep, err
}

// orphanClones reconstructs dispatchable clones for the CHT entries still
// live after a full reap-grace window: the work a crashed replica took
// with it. Each entry's key carries (node, state, origin, seq) and the
// mirrored entry supplies the exact instance serials, so the replayed
// clone re-announces the SAME entries — the replay retires what the
// corpse stranded, not a fresh generation, and the ledger stays exact.
// Returns nil (and leaves state untouched) when replay is off, exhausted,
// or any live entry cannot be reconstructed; the caller then reaps.
// Callers hold q.mu.
func (q *Query) orphanClones() []*wire.CloneMsg {
	if q.cluster == nil || !q.replayable || q.replayRounds >= maxReplayRounds {
		return nil
	}
	// Group live entries by (site, state): one clone message per group,
	// matching the per-site batching of a normal forward.
	type group struct {
		site  string
		state wire.State
		dest  []wire.DestNode
	}
	groups := make(map[string]*group)
	var order []string
	for key, cnt := range q.counts {
		if cnt <= 0 {
			continue
		}
		e, ok := q.entries[key]
		if !ok || e.State.NumQ <= 0 || e.State.NumQ > len(q.web.Stages) {
			// An entry we cannot reconstruct (or a state from a web-query
			// shape we do not understand): replay would lose it silently,
			// so fall back to the honest reap.
			return nil
		}
		site := webgraph.Host(e.Node)
		gk := site + "\x00" + e.State.Key()
		g := groups[gk]
		if g == nil {
			g = &group{site: site, state: e.State}
			groups[gk] = g
			order = append(order, gk)
		}
		for i := 0; i < cnt; i++ {
			g.dest = append(g.dest, wire.DestNode{URL: e.Node, Origin: e.Origin, Seq: e.Seq})
		}
	}
	if len(order) == 0 {
		return nil
	}
	sort.Strings(order)
	q.replayRounds++
	var out []*wire.CloneMsg
	for _, gk := range order {
		g := groups[gk]
		sort.Slice(g.dest, func(i, j int) bool {
			if g.dest[i].URL != g.dest[j].URL {
				return g.dest[i].URL < g.dest[j].URL
			}
			return g.dest[i].Seq < g.dest[j].Seq
		})
		base := len(q.web.Stages) - g.state.NumQ
		msg := &wire.CloneMsg{
			ID:     q.id,
			Dest:   g.dest,
			Rem:    g.state.Rem,
			Base:   base,
			Stages: nodeproc.EncodeStages(q.web.Stages[base:]),
			Hops:   1, // mid-traversal resume, not a fresh root
			Budget: q.budget,
		}
		if q.journal != nil {
			msg.Span = wire.SpanID{Origin: q.id.Site, Seq: q.spanSeq.Add(1)}
		}
		for _, d := range g.dest {
			q.replayed[wire.CHTEntry{Node: d.URL, State: g.state, Origin: d.Origin, Seq: d.Seq}.Key()] = true
		}
		out = append(out, msg)
	}
	return out
}

// replay dispatches reconstructed orphan clones to surviving replicas and
// returns how many were accepted. Rounds rotate replicas: a replica used
// by an earlier round for the same site is excluded, because a silently
// failing replica — one that accepts clones but whose reports never
// arrive — still looks alive to the membership table, and replaying into
// it forever would turn the replay loop into a wedge. Callers must NOT
// hold q.mu.
func (q *Query) replay(clones []*wire.CloneMsg) int {
	sent := 0
	for _, msg := range clones {
		site := webgraph.Host(msg.Dest[0].URL)
		q.mu.Lock()
		exclude := q.replayVia[site]
		q.mu.Unlock()
		if q.journal != nil {
			q.journal.Append(trace.Event{
				Query: q.id.String(), Span: msg.Span, Kind: trace.Replay,
				State: msg.State().String(), Hop: msg.Hops,
				Detail: site + ": " + strconv.Itoa(len(msg.Dest)) + " stranded",
			})
		}
		ep, err := q.sendSite(site, msg, exclude)
		if err != nil && len(exclude) > 0 {
			// Every not-yet-rotated replica failed; the one we are avoiding
			// may be the only survivor (or back from the dead). Retry open.
			ep, err = q.sendSite(site, msg, nil)
		}
		if err != nil {
			continue
		}
		sent++
		q.mu.Lock()
		if q.replayVia == nil {
			q.replayVia = make(map[string]map[string]bool)
		}
		if q.replayVia[site] == nil {
			q.replayVia[site] = make(map[string]bool)
		}
		q.replayVia[site][ep] = true
		q.stats.Replays++
		q.mu.Unlock()
		q.met.ReplicaReplays.Add(1)
	}
	return sent
}
