package server

import (
	"webdis/internal/nodeproc"
	"webdis/internal/plan"
	"webdis/internal/wire"
)

// PlannerOptions configure the cost-based distributed planner on the
// query-server side. The zero value disables it: the server then ships
// every result row raw and every clone as a query, the seed behaviour.
type PlannerOptions struct {
	// Enabled turns the planner on: pushed-down plan fragments are
	// applied to result tables before they ship, site statistics ride on
	// result frames and clones, and the ship-query-vs-ship-data cost
	// model decides each traversal edge.
	Enabled bool
	// NoShipData keeps pushdown and statistics but pins every edge to
	// ship-query (the paper's pure query-shipping engine) — the ablation
	// that isolates the pushdown benefit from the edge decisions.
	NoShipData bool
	// ShipDataBias scales the ship-data side of the cost comparison:
	// an edge ships data when dests·avgDocBytes·bias < cloneBytes.
	// Values above 1 make ship-data likelier; 0 means 1 (neutral).
	ShipDataBias float64
}

// ownStat snapshots this site's cumulative workload statistics from the
// metrics counters. Counters shared across a deployment's servers (the
// experiments share one Metrics) make the stat an upper bound, which
// only biases the cost model toward ship-query — the safe direction.
func (s *Server) ownStat() wire.SiteStat {
	return wire.SiteStat{
		Site:        s.site,
		Docs:        s.met.DocsParsed.Load(),
		DocBytes:    s.met.DocBytes.Load(),
		Evals:       s.met.Evaluations.Load(),
		RowsScanned: s.met.RowsScanned.Load(),
		RowsEmitted: s.met.RowsEmitted.Load(),
		Fanout:      s.met.TargetsAdded.Load(),
	}
}

// absorbHints folds the statistics a clone carried into the server's
// per-site view. Stats are cumulative counters, so the latest snapshot
// replaces the stored one (out-of-order arrivals merely understate).
func (s *Server) absorbHints(hints []wire.SiteStat) {
	if len(hints) == 0 {
		return
	}
	s.statMu.Lock()
	defer s.statMu.Unlock()
	for _, h := range hints {
		if h.Site == "" || h.Site == s.site {
			continue
		}
		s.peerStats[h.Site] = h
	}
}

// recordPeerDoc books one remotely fetched document into the peer-site
// statistics, so even sites never heard from via hints accumulate the
// avgDocBytes the cost model needs.
func (s *Server) recordPeerDoc(site string, bytes int64) {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	st := s.peerStats[site]
	st.Site = site
	st.Docs++
	st.DocBytes += bytes
	s.peerStats[site] = st
}

// hintsFor builds the statistics list to piggyback on outgoing clones.
// Only this site's own first-hand stat travels server-to-server: the
// user-site hears every site's stat on result frames and re-seeds the
// full picture (up to wire.MaxHints) on each query's root clone, so
// relaying the whole peer table on every hop would cost more wire bytes
// than the edge decisions it informs could save.
func (s *Server) hintsFor() []wire.SiteStat {
	return []wire.SiteStat{s.ownStat()}
}

// peerStat returns the stored statistics for a site (zero when unknown —
// the cold start that defaults the edge to ship-query).
func (s *Server) peerStat(site string) wire.SiteStat {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.peerStats[site]
}

// chooseShipData decides one traversal edge: true means the clone stays
// on this site's queue and the destination documents come over the wire
// instead (ship-data), because the documents are estimated cheaper to
// move than the clone. Requires observed statistics for the destination
// site; without them the edge ships the query, the paper's default.
func (s *Server) chooseShipData(oc *nodeproc.Out) bool {
	p := s.opts.Planner
	if !p.Enabled || p.NoShipData || oc.Site == s.site {
		return false
	}
	// Cost the clone at its actual encoded frame size; the structural
	// estimate remains the fallback for messages the codec refuses.
	cloneBytes := int64(wire.EncodedSize(oc.Msg))
	if cloneBytes == 0 {
		envBytes := 0
		for k, v := range oc.Msg.Env {
			envBytes += len(k) + len(v)
		}
		cloneBytes = plan.EstimateCloneBytes(len(oc.Msg.Stages), envBytes, len(oc.Msg.Dest))
	}
	avg := s.peerStat(oc.Site).AvgDocBytes()
	return plan.ChooseShipData(len(oc.Msg.Dest), avg, cloneBytes, p.ShipDataBias)
}
