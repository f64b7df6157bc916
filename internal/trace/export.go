package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// traversalKinds are the per-node processing events that make up the
// paper's Figure-7 state sequence.
var traversalKinds = map[Kind]bool{
	Evaluate: true, Route: true, DeadEnd: true,
	Drop: true, Rewrite: true, Missing: true,
}

// TraversalLine is one row of the regenerated Figure-7 trace.
type TraversalLine struct {
	Site   string
	Node   string
	State  string
	Action string
	Detail string
}

// Traversal regenerates the paper's Figure-7 state sequence from the
// journey's real spans: one line per node visit, in causal order, with
// the clone state (num_q, rem) at that visit.
func (jy *Journey) Traversal() []TraversalLine {
	var out []TraversalLine
	for _, e := range jy.Events {
		if !traversalKinds[e.Kind] {
			continue
		}
		action := string(e.Kind)
		switch e.Kind {
		case Evaluate:
			action = "eval"
		case Drop:
			action = "drop"
		}
		out = append(out, TraversalLine{
			Site: e.Site, Node: e.Node, State: e.State,
			Action: action, Detail: e.Detail,
		})
	}
	return out
}

// FormatTraversal renders the traversal as aligned text lines.
func (jy *Journey) FormatTraversal() string {
	var b strings.Builder
	for _, l := range jy.Traversal() {
		fmt.Fprintf(&b, "%-44s %-14s %-9s %s\n", l.Node, l.State, l.Action, l.Detail)
	}
	return b.String()
}

// Tree renders the clone tree as indented text: one line per span with
// site, hop, state, fate and hop latency. This is what `webdis -trace`
// prints — over TCP it is stitched purely from the span ids echoed on
// result messages.
func (jy *Journey) Tree() string {
	var b strings.Builder
	jy.Walk(func(n *SpanNode, depth int) {
		site := n.Site
		if site == "" {
			site = n.DestSite + "?"
		}
		lat := ""
		if l := n.Latency(); l >= 0 {
			lat = " +" + l.Round(time.Microsecond).String()
		}
		retries := ""
		if n.Retries > 0 {
			retries = fmt.Sprintf(" retries=%d", n.Retries)
		}
		fmt.Fprintf(&b, "%s%s hop=%d %s [%s]%s%s\n",
			strings.Repeat("  ", depth), site, n.Hop, n.State, n.Fate, lat, retries)
	})
	return b.String()
}

// DOT renders the journey as a Graphviz overlay in the same style as
// webgen's web DOT (solid intra-site, dashed cross-site): sites are
// nodes, each aggregated clone flow is an edge labeled with its clone
// count and mean hop latency. Lost hops are drawn red and bold, so
// injected faults are visible at a glance next to the web topology.
func (jy *Journey) DOT() string {
	type flow struct {
		n     int
		lost  int
		total time.Duration
		timed int
	}
	flows := make(map[[2]string]*flow)
	var keys [][2]string
	jy.Walk(func(n *SpanNode, _ int) {
		if n.FromSite == "" {
			return
		}
		to := n.Site
		if to == "" {
			to = n.DestSite
		}
		k := [2]string{n.FromSite, to}
		f := flows[k]
		if f == nil {
			f = &flow{}
			flows[k] = f
			keys = append(keys, k)
		}
		f.n++
		if n.Fate == FateInFlight || n.Fate == FateLostForward {
			f.lost++
		}
		if l := n.Latency(); l >= 0 {
			f.total += l
			f.timed++
		}
	})
	sort.Slice(keys, func(i, k int) bool {
		if keys[i][0] != keys[k][0] {
			return keys[i][0] < keys[k][0]
		}
		return keys[i][1] < keys[k][1]
	})
	var b strings.Builder
	b.WriteString("digraph journey {\n  rankdir=LR;\n")
	seen := make(map[string]bool)
	for _, k := range keys {
		for _, s := range k[:] {
			if !seen[s] {
				seen[s] = true
				fmt.Fprintf(&b, "  %q;\n", s)
			}
		}
	}
	for _, k := range keys {
		f := flows[k]
		label := fmt.Sprintf("%d clone", f.n)
		if f.n != 1 {
			label += "s"
		}
		if f.timed > 0 {
			label += fmt.Sprintf(", %s", (f.total / time.Duration(f.timed)).Round(time.Microsecond))
		}
		style := "solid"
		if k[0] != k[1] {
			style = "dashed"
		}
		attrs := fmt.Sprintf("style=%s", style)
		if f.lost > 0 {
			attrs = "style=bold, color=red"
			label += fmt.Sprintf(", %d lost", f.lost)
		}
		fmt.Fprintf(&b, "  %q -> %q [%s, label=%q];\n", k[0], k[1], attrs, label)
	}
	b.WriteString("}\n")
	return b.String()
}

// chromeEvent is one entry of the Chrome trace_event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace exports the journey in Chrome's trace_event JSON format:
// open chrome://tracing (or https://ui.perfetto.dev) and load the bytes.
// Each site is a process row, each clone a slice from arrival to its last
// event, and flow arrows connect parents to the children they spawned.
func (jy *Journey) ChromeTrace() ([]byte, error) {
	pids := make(map[string]int)
	var events []chromeEvent
	pid := func(site string) int {
		id, ok := pids[site]
		if !ok {
			id = len(pids) + 1
			pids[site] = id
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: id,
				Args: map[string]any{"name": site},
			})
		}
		return id
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	tid := 0
	jy.Walk(func(n *SpanNode, _ int) {
		tid++
		site := n.Site
		if site == "" {
			site = "(lost: " + n.DestSite + ")"
		}
		start := n.Arrived
		if start < 0 {
			start = n.Sent
		}
		if start < 0 {
			start = 0
		}
		end := n.Done
		if end < start {
			end = start
		}
		p := pid(site)
		events = append(events, chromeEvent{
			Name: n.State, Cat: "clone", Ph: "X",
			Ts: us(start), Dur: us(end - start), Pid: p, Tid: tid,
			Args: map[string]any{
				"span":   n.Span.String(),
				"parent": n.Parent.String(),
				"hop":    n.Hop,
				"fate":   n.Fate,
			},
		})
		// Flow arrow from the parent's forward to this clone's slice.
		if !n.Parent.IsZero() {
			if pp, ok := jy.Spans[n.Parent]; ok && n.Sent >= 0 {
				events = append(events, chromeEvent{
					Name: "clone", Cat: "flow", Ph: "s", ID: tid,
					Ts: us(n.Sent), Pid: pid(siteOf(pp)), Tid: 0,
				})
				events = append(events, chromeEvent{
					Name: "clone", Cat: "flow", Ph: "f", BP: "e", ID: tid,
					Ts: us(start), Pid: p, Tid: tid,
				})
			}
		}
	})
	return json.Marshal(map[string]any{"traceEvents": events})
}

func siteOf(n *SpanNode) string {
	if n.Site != "" {
		return n.Site
	}
	return "(lost: " + n.DestSite + ")"
}
