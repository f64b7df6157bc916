package experiments

import (
	"fmt"
	"io"
	"strings"

	"webdis/internal/nodeproc"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// Figure1Out summarizes the Figure-1 reproduction.
type Figure1Out struct {
	Roles  map[int]string // node index (1..8) -> observed role summary
	Q1Rows int
	Q2Rows int
	Drops  int64 // duplicate arrivals purged (expected: 1, at node 8)
}

// Figure1 reproduces the paper's Figure 1: the query
// Q = S G·(G|L) q1 (G|L) q2 over the eight-node web, with node roles.
func Figure1(w io.Writer) (*Figure1Out, error) {
	fmt.Fprintln(w, "F1: web traversal path (paper Figure 1)")
	fmt.Fprintln(w, "query: Q = S G·(G|L) q1 (G|L) q2")
	fmt.Fprintln(w)
	out, err := runTraced(webgraph.Figure1(), server.Options{}, webgraph.Figure1DISQL)
	if err != nil {
		return nil, err
	}
	nodeIdx := make(map[string]int)
	for i := 1; i < len(webgraph.Figure1Nodes); i++ {
		nodeIdx[webgraph.Figure1Nodes[i]] = i
	}
	res := &Figure1Out{Roles: make(map[int]string), Drops: out.metrics.DupDropped}
	byNode := eventsByNode(out.trace)
	var rows [][]string
	for i := 1; i < len(webgraph.Figure1Nodes); i++ {
		url := webgraph.Figure1Nodes[i]
		var parts []string
		for _, e := range byNode[url] {
			switch e.Action {
			case "route":
				parts = append(parts, "PureRouter")
			case "eval":
				parts = append(parts, "ServerRouter("+e.Detail+")")
			case "dead-end":
				parts = append(parts, "ServerRouter(dead-end)")
			case "drop":
				parts = append(parts, "duplicate-dropped")
			}
		}
		role := strings.Join(parts, ", ")
		res.Roles[i] = role
		rows = append(rows, []string{fmt.Sprintf("node %d", i), url, role})
	}
	table(w, []string{"node", "url", "observed role(s)"}, rows)
	for _, t := range out.results {
		if t.Stage == 0 {
			res.Q1Rows = len(t.Rows)
		} else {
			res.Q2Rows = len(t.Rows)
		}
	}
	fmt.Fprintf(w, "\nq1 answered at %d nodes (paper: 4, 5, 6), q2 at %d nodes (paper: 4, 8), "+
		"%d duplicate arrival dropped (at node 8), %d dead end (node 7)\n",
		res.Q1Rows, res.Q2Rows, res.Drops, out.metrics.DeadEnds)
	return res, nil
}

// Figure5Out summarizes the Figure-5 reproduction.
type Figure5Out struct {
	ArrivalsAtX  int   // clone arrivals at node X (expected 5: a..e)
	ProcessedAtX int   // arrivals processed (expected 3: a, b, c)
	DroppedAtX   int   // arrivals purged (expected 2: d, e)
	EvalsNoDedup int64 // node-query evaluations at X with the log table off
}

// Figure5 reproduces the paper's Figure 5: five arrivals at one node,
// with the Node-query Log Table on and off.
func Figure5(w io.Writer) (*Figure5Out, error) {
	fmt.Fprintln(w, "F5: multiple visits to a node (paper Figure 5, Section 3.1)")
	fmt.Fprintln(w, "query: Q = S G·(G|L) q1 (G|L) q2; node X receives arrivals a..e")
	fmt.Fprintln(w)
	on, err := runTraced(webgraph.Figure5(), server.Options{}, webgraph.Figure5DISQL)
	if err != nil {
		return nil, err
	}
	res := &Figure5Out{}
	var rows [][]string
	labels := []string{"a", "b", "c", "d", "e"}
	i := 0
	for _, e := range eventsByNode(on.trace)[webgraph.Figure5X] {
		res.ArrivalsAtX++
		disposition := ""
		switch e.Action {
		case "route":
			disposition = "processed as PureRouter"
			res.ProcessedAtX++
		case "eval":
			disposition = "processed as ServerRouter (" + e.Detail + ")"
			res.ProcessedAtX++
		case "dead-end":
			disposition = "processed: dead end"
			res.ProcessedAtX++
		case "drop":
			disposition = "PURGED as equivalent to a logged state"
			res.DroppedAtX++
		}
		label := "?"
		if i < len(labels) {
			label = labels[i]
		}
		i++
		rows = append(rows, []string{label, e.State, disposition})
	}
	table(w, []string{"arrival", "state (num_q, rem)", "disposition with log table ON"}, rows)

	off, err := runTraced(webgraph.Figure5(),
		server.Options{Dedup: nodeproc.DedupOff, MaxHops: 16}, webgraph.Figure5DISQL)
	if err != nil {
		return nil, err
	}
	var evalsOffAtX int64
	for _, e := range eventsByNode(off.trace)[webgraph.Figure5X] {
		if e.Action == "eval" || e.Action == "dead-end" {
			evalsOffAtX++
		}
	}
	res.EvalsNoDedup = evalsOffAtX
	fmt.Fprintf(w, "\nwith log table : %d arrivals, %d processed, %d purged; total evaluations %d, clone messages %d\n",
		res.ArrivalsAtX, res.ProcessedAtX, res.DroppedAtX, on.metrics.Evaluations, on.metrics.ClonesForwarded+on.metrics.LocalClones)
	fmt.Fprintf(w, "without        : node X evaluated %d times (the paper's wasted recomputation of c, d, e); total evaluations %d, clone messages %d\n",
		evalsOffAtX, off.metrics.Evaluations, off.metrics.ClonesForwarded+off.metrics.LocalClones)
	return res, nil
}

// CampusOut summarizes the Section-5 reproduction.
type CampusOut struct {
	Q1Rows    int
	Q2Rows    int
	Conveners map[string]string
}

// Campus reproduces the paper's Section 5 sample execution (Figures 7
// and 8).
func Campus(w io.Writer) (*CampusOut, error) {
	fmt.Fprintln(w, "F7/F8: the campus convener query (paper Section 5)")
	fmt.Fprintln(w)
	out, err := runTraced(webgraph.Campus(), server.Options{}, webgraph.CampusDISQL)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "traversal (Figure 7):")
	var rows [][]string
	for _, e := range out.trace {
		rows = append(rows, []string{e.Node, e.State, e.Action, e.Detail})
	}
	table(w, []string{"node", "state", "action", "detail"}, rows)

	res := &CampusOut{Conveners: make(map[string]string)}
	fmt.Fprintln(w, "\nresults (Figure 8):")
	for _, t := range out.results {
		fmt.Fprintf(w, "  q%d %v\n", t.Stage+1, t.Cols)
		for _, row := range t.Rows {
			fmt.Fprintf(w, "    %q\n", row)
		}
		if t.Stage == 0 {
			res.Q1Rows = len(t.Rows)
		} else {
			res.Q2Rows = len(t.Rows)
			for _, row := range t.Rows {
				res.Conveners[row[0]] = row[1]
			}
		}
	}
	fmt.Fprintf(w, "\nCHT: %d entries entered, %d retired, peak %d live; completion detected in %v\n",
		out.qstats.EntriesAdded, out.qstats.EntriesRetired, out.qstats.PeakLive, out.qstats.Duration.Round(0))
	kindTable(w, "message mix (netsim per-kind counts):", out.net.ByKind)
	fmt.Fprintln(w)
	siteTable(w, "per-site scheduler counters:", out.sites)
	return res, nil
}
