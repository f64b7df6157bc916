package trace

import (
	"sort"
	"time"

	"webdis/internal/wire"
)

// Fates summarize what finally happened to one clone message.
const (
	// FateProcessed: the clone was evaluated and its report reached the
	// user-site (or was applied locally by the hybrid fallback).
	FateProcessed = "processed"
	// FateBounced: the clone was returned to the user-site undelivered.
	FateBounced = "bounced"
	// FateTerminated: the result dispatch failed, so the processing site
	// purged the query — the paper's passive termination.
	FateTerminated = "terminated"
	// FateLostForward: every forward attempt failed; the clone never left
	// its creating site and its CHT entries were retired there.
	FateLostForward = "forward-failed"
	// FateInFlight: the clone was sent but no arrival or report was ever
	// journaled — it vanished on the wire (or the journal is partial).
	FateInFlight = "in-flight"
	// FateExpired: the clone was terminated for exceeding its budget
	// (deadline or quota); its entries were retired with a typed EXPIRED
	// report, so the query still completes — with fewer answers.
	FateExpired = "expired"
	// FateShed: the clone was refused by admission control before any
	// processing — the query never started at that site.
	FateShed = "shed"
	// FateStopped: the clone was terminated by the user-site's active
	// StopMsg broadcast (early termination); its entries were retired
	// with a typed STOPPED report, so the query completes through the
	// CHT — sooner, with the answers gathered so far.
	FateStopped = "stopped"
)

// SpanNode is one clone message in a reconstructed journey.
type SpanNode struct {
	Span   wire.SpanID
	Parent wire.SpanID
	// FromSite created and sent the clone; Site processed it ("" when it
	// never arrived); DestSite is where it was addressed.
	FromSite string
	Site     string
	DestSite string
	Hop      int
	State    string
	// Sent, Arrived and Done are monotonic trace times (-1 when the
	// corresponding event is not in the journals).
	Sent    time.Duration
	Arrived time.Duration
	Done    time.Duration
	Fate    string
	Retries int
	// Failovers counts re-resolutions to another replica of the
	// destination site after retries exhausted against the first pick.
	Failovers int
	Events    []Event // this span's events, time-ordered
	Children  []*SpanNode
}

// Latency returns the clone's hop latency (send to arrival), or -1 when
// either end is unknown.
func (n *SpanNode) Latency() time.Duration {
	if n.Sent < 0 || n.Arrived < 0 {
		return -1
	}
	return n.Arrived - n.Sent
}

// Journey is the causal clone tree of one query: every clone message
// that existed, each exactly once, with parent, site, hop latency and
// fate — the machine-checkable version of the paper's Figure 7.
type Journey struct {
	Query  string
	Roots  []*SpanNode
	Spans  map[wire.SpanID]*SpanNode
	Events []Event // the query's events across all journals, time-ordered
}

// BuildJourney reconstructs the journey of the query whose
// wire.QueryID.String() is query from any mix of journal events: full
// site journals (in-process deployments) or the user-site's
// report-stitched view (real TCP). Events of other queries and untraced
// (zero-span) events are ignored.
func BuildJourney(query string, events []Event) *Journey {
	jy := &Journey{Query: query, Spans: make(map[wire.SpanID]*SpanNode)}
	for _, e := range events {
		if e.Query == query {
			jy.Events = append(jy.Events, e)
		}
	}
	sort.SliceStable(jy.Events, func(i, k int) bool { return jy.Events[i].At < jy.Events[k].At })

	node := func(id wire.SpanID) *SpanNode {
		n := jy.Spans[id]
		if n == nil {
			n = &SpanNode{Span: id, Sent: -1, Arrived: -1, Done: -1}
			jy.Spans[id] = n
		}
		return n
	}
	for _, e := range jy.Events {
		if e.Span.IsZero() {
			continue
		}
		n := node(e.Span)
		n.Events = append(n.Events, e)
		if e.At > n.Done {
			n.Done = e.At
		}
		switch e.Kind {
		case Dispatch, Forward:
			// The creating side: establishes parentage and send time.
			n.Parent = e.Parent
			n.FromSite = e.Site
			n.DestSite = e.Detail
			n.Hop = e.Hop
			if n.State == "" {
				n.State = e.State
			}
			if n.Sent < 0 || e.At < n.Sent {
				n.Sent = e.At
			}
		case ForwardFailed:
			n.Parent = e.Parent
			n.FromSite = e.Site
			n.DestSite = e.Detail
			n.Hop = e.Hop
			n.Fate = FateLostForward
		case Arrive:
			n.Site = e.Site
			n.Hop = e.Hop
			if n.State == "" {
				n.State = e.State
			}
			if n.Arrived < 0 || e.At < n.Arrived {
				n.Arrived = e.At
			}
		case Result:
			// Over TCP the report is the only evidence of the processing
			// site; in-process it just confirms the arrival event.
			if n.Site == "" {
				n.Site = e.Site
			}
			n.Fate = FateProcessed
		case Bounce:
			n.Fate = FateBounced
		case Terminate:
			n.Fate = FateTerminated
		case Expire:
			// Like Result, the expiry report may be the only evidence of
			// the enforcing site (TCP stitch).
			if n.Site == "" {
				n.Site = e.Site
			}
			n.Fate = FateExpired
		case Shed:
			n.Fate = FateShed
		case Stop:
			// Like Expire, the stop report may be the only evidence of
			// the terminating site (TCP stitch).
			if n.Site == "" {
				n.Site = e.Site
			}
			n.Fate = FateStopped
		case Retry:
			n.Retries++
		case Failover:
			n.Failovers++
		case Replay:
			// A fresh span dispatched by the user-site to resume the work
			// a crashed replica dropped: like Dispatch it establishes the
			// sending side.
			n.FromSite = e.Site
			n.DestSite = e.Detail
			if n.State == "" {
				n.State = e.State
			}
			if n.Sent < 0 || e.At < n.Sent {
				n.Sent = e.At
			}
		}
	}

	for _, n := range jy.Spans {
		if n.Fate == "" {
			if n.Site == "" {
				n.Fate = FateInFlight
			} else {
				// Arrived but no report was journaled (e.g. an empty
				// update batch); it was still processed.
				n.Fate = FateProcessed
			}
		}
	}

	// Link children to parents; spans whose parent is unknown (zero, or
	// missing from the journals) are roots.
	var ids []wire.SpanID
	for id := range jy.Spans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool {
		if ids[i].Origin != ids[k].Origin {
			return ids[i].Origin < ids[k].Origin
		}
		return ids[i].Seq < ids[k].Seq
	})
	for _, id := range ids {
		n := jy.Spans[id]
		if p, ok := jy.Spans[n.Parent]; ok && !n.Parent.IsZero() {
			p.Children = append(p.Children, n)
		} else {
			jy.Roots = append(jy.Roots, n)
		}
	}
	for _, n := range jy.Spans {
		sort.Slice(n.Children, func(i, k int) bool {
			a, b := n.Children[i], n.Children[k]
			if a.Sent != b.Sent {
				return a.Sent < b.Sent
			}
			if a.Span.Origin != b.Span.Origin {
				return a.Span.Origin < b.Span.Origin
			}
			return a.Span.Seq < b.Span.Seq
		})
	}
	sort.Slice(jy.Roots, func(i, k int) bool {
		a, b := jy.Roots[i], jy.Roots[k]
		if a.Sent != b.Sent {
			return a.Sent < b.Sent
		}
		if a.Span.Origin != b.Span.Origin {
			return a.Span.Origin < b.Span.Origin
		}
		return a.Span.Seq < b.Span.Seq
	})
	return jy
}

// Walk visits every span depth-first from the roots.
func (jy *Journey) Walk(fn func(n *SpanNode, depth int)) {
	var rec func(n *SpanNode, depth int)
	rec = func(n *SpanNode, depth int) {
		fn(n, depth)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	for _, r := range jy.Roots {
		rec(r, 0)
	}
}

// Lost returns the spans that never completed processing: clones that
// vanished in flight or whose forwards failed outright. These are the
// exact hops where answer rows were lost — the fault-localization signal
// TestJourneyLocalizesLostClones (internal/core) checks against the
// fabric's fault ledger.
func (jy *Journey) Lost() []*SpanNode {
	var out []*SpanNode
	jy.Walk(func(n *SpanNode, _ int) {
		if n.Fate == FateInFlight || n.Fate == FateLostForward {
			out = append(out, n)
		}
	})
	return out
}

// LostEdges aggregates Lost spans per (from-site, dest-site) pair,
// attributing each vanished clone to the network edge that swallowed it.
func (jy *Journey) LostEdges() map[[2]string]int {
	out := make(map[[2]string]int)
	for _, n := range jy.Lost() {
		out[[2]string{n.FromSite, n.DestSite}]++
	}
	return out
}

// Complete reports whether every clone in the tree was accounted for:
// no in-flight or failed-forward spans remain.
func (jy *Journey) Complete() bool { return len(jy.Lost()) == 0 }
