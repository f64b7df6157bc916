package client

import (
	"sync"

	"webdis/internal/wire"
)

// statStore is the user-site's accumulated view of per-site statistics,
// learned from the Stats piggybacked on result frames. It outlives any
// single query (it hangs off the Client), so the planner's cost model
// warms up across queries: the first traversal ships queries blind, the
// next one hints every clone with what the first observed.
type statStore struct {
	mu    sync.Mutex
	stats map[string]wire.SiteStat
}

// learn folds piggybacked statistics in; snapshots are cumulative
// counters, so the latest replaces the stored one.
func (ss *statStore) learn(stats []wire.SiteStat) {
	if ss == nil || len(stats) == 0 {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, st := range stats {
		if st.Site == "" {
			continue
		}
		ss.stats[st.Site] = st
	}
}

// hints snapshots the store for attachment to outgoing clones, bounded
// to wire.MaxHints entries.
func (ss *statStore) hints() []wire.SiteStat {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]wire.SiteStat, 0, len(ss.stats))
	for _, st := range ss.stats {
		if len(out) >= wire.MaxHints {
			break
		}
		out = append(out, st)
	}
	return out
}

// contrib identifies one node-query contribution: the (node, stage,
// environment) triple under which its rows were computed. Evaluation is
// deterministic given those three, so the aggregate fold deduplicates
// whole contributions by it — re-arrivals of the same state must not
// count twice, while the same node answering under two different
// upstream bindings counts once per binding.
type contrib struct {
	node  string
	stage int
	env   string // the rows' wire.EnvKey
}
