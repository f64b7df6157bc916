// Package centralized implements the data-shipping baseline the WEBDIS
// paper argues against (Section 1): every document on the query's PRE
// frontier is downloaded from its home site to the user-site and the whole
// web-query is evaluated locally. It applies the same traversal semantics
// and the same duplicate-arrival rules as the distributed engine, so both
// compute identical result sets — the differential tests rely on this —
// while the traffic profile differs exactly the way the paper predicts:
// document bytes cross the network instead of query clones.
package centralized

import (
	"fmt"
	"time"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/pre"
	"webdis/internal/relmodel"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

// Options configure a centralized run. The zero value matches the
// distributed engine's defaults (subsumption dedup, per-query document
// cache).
type Options struct {
	// Dedup selects the frontier's duplicate-state rules; the zero value
	// is DedupSubsume (mirrors server.Options).
	Dedup nodeproc.DedupMode
	// NoCache disables the per-query document cache, re-downloading a
	// document on every visit — the worst-case data-shipping profile.
	NoCache bool
	// MaxHops, when positive, bounds traversal depth (safety for
	// dedup-off runs on cyclic webs).
	MaxHops int
	// StrictDeadEnds mirrors server.Options.StrictDeadEnds.
	StrictDeadEnds bool
}

// Stats describes the work a centralized run performed.
type Stats struct {
	Fetches         int   // documents downloaded over the network
	CacheHits       int   // document loads served by the local cache
	BytesDownloaded int64 // payload bytes of downloaded documents
	Evaluations     int   // node-query evaluations (all at the user-site)
	DeadEnds        int
	DupDropped      int
	DupRewritten    int
	Duration        time.Duration
}

// Result is the outcome of a centralized run.
type Result struct {
	Tables []client.ResultTable
	Stats  Stats
}

// Run evaluates the web-query by data shipping: from names the user-site
// endpoint used for traffic attribution (documents are fetched from each
// site's webserver endpoint over tr).
func Run(tr netsim.Transport, from string, w *disql.WebQuery, opts Options) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	fetcher := webserver.NewFetcher(tr, from)
	log := nodeproc.NewLogTable(opts.Dedup)
	qid := wire.QueryID{User: "centralized", Site: from, Num: 1}

	cache := make(map[string][]byte)
	var st Stats
	load := func(url string) ([]byte, error) {
		if !opts.NoCache {
			if content, ok := cache[url]; ok {
				st.CacheHits++
				return content, nil
			}
		}
		content, err := fetcher.Get(url)
		if err != nil {
			return nil, err
		}
		st.Fetches++
		st.BytesDownloaded += int64(len(content))
		if !opts.NoCache {
			cache[url] = content
		}
		return content, nil
	}

	var frontier []item
	p1 := w.Stages[0].PRE
	for _, node := range w.Start {
		frontier = append(frontier, item{node: node, rem: p1, stages: w.Stages, base: 0})
	}
	if w.StartTerm != "" {
		return nil, fmt.Errorf("centralized: index(%q) StartNodes must be resolved by the caller", w.StartTerm)
	}

	tables := make(map[int]*client.ResultTable)
	rowSeen := make(map[int]map[string]bool)
	addRows := func(base int, cols []string, rows [][]string) {
		rt := tables[base]
		if rt == nil {
			rt = &client.ResultTable{Stage: base, Cols: cols}
			tables[base] = rt
			rowSeen[base] = make(map[string]bool)
		}
		for _, row := range rows {
			key := fmt.Sprint(row)
			if rowSeen[base][key] {
				continue
			}
			rowSeen[base][key] = true
			rt.Rows = append(rt.Rows, row)
		}
	}

	for len(frontier) > 0 {
		it := frontier[0]
		frontier = frontier[1:]

		v := log.Check(it.node, qid, len(it.stages), it.rem, wire.EnvKey(it.env))
		switch v.Action {
		case nodeproc.Drop:
			st.DupDropped++
			continue
		case nodeproc.Rewrite:
			st.DupRewritten++
			it.rem = v.Rem
		}

		content, err := load(it.node)
		if err != nil {
			continue // floating link or unreachable site: skip, like the engine
		}
		db, err := nodeproc.BuildDB(it.node, content)
		if err != nil {
			continue
		}
		if ok := processAt(db, it.node, it.rem, it.stages, it.base, it.hops, it.env, opts, log, qid, &st, addRows, &frontier); !ok {
			continue
		}
	}
	st.Duration = time.Since(start)

	res := &Result{Stats: st}
	for base := 0; base < len(w.Stages); base++ {
		if t := tables[base]; t != nil {
			sortRows(t.Rows)
			res.Tables = append(res.Tables, *t)
		}
	}
	return res, nil
}

// item is one frontier entry of the breadth-first traversal: a node to
// visit in a given clone state.
type item struct {
	node   string
	rem    pre.Expr
	stages []disql.Stage
	base   int
	hops   int
	env    map[string]string
}

// processAt runs the evaluation chain for one node (arrival plus nullable
// stage advances), appending continuation targets to the frontier.
func processAt(db *relmodel.DB, node string, rem pre.Expr, stages []disql.Stage, base, hops int, env map[string]string, opts Options, log *nodeproc.LogTable, qid wire.QueryID, st *Stats, addRows func(int, []string, [][]string), frontier *[]item) bool {
	type workItem struct {
		rem    pre.Expr
		stages []disql.Stage
		base   int
		env    map[string]string
	}
	work := []workItem{{rem, stages, base, env}}
	virtual := false
	for len(work) > 0 {
		it := work[0]
		work = work[1:]
		if virtual {
			v := log.Check(node, qid, len(it.stages), it.rem, wire.EnvKey(it.env))
			switch v.Action {
			case nodeproc.Drop:
				st.DupDropped++
				continue
			case nodeproc.Rewrite:
				st.DupRewritten++
				it.rem = v.Rem
			}
		}
		virtual = true
		res, err := nodeproc.Step(db, node, it.rem, it.stages[0], len(it.stages) > 1, it.env)
		if err != nil {
			continue
		}
		if res.Evaluated {
			st.Evaluations++
			if res.DeadEnd {
				st.DeadEnds++
				if opts.StrictDeadEnds {
					continue
				}
			}
			if len(it.stages[0].Query.Select) > 0 && !res.Table.Empty() {
				addRows(it.base, res.Table.Cols, res.Table.Rows)
			}
		}
		if opts.MaxHops > 0 && hops >= opts.MaxHops {
			if res.Advance {
				work = append(work, workItem{it.stages[1].PRE, it.stages[1:], it.base + 1,
					nodeproc.ExtendEnv(it.env, it.stages[0], db)})
			}
			continue
		}
		for _, f := range res.Continue {
			for _, tgt := range f.Targets {
				*frontier = append(*frontier, item{tgt.URL, f.Rem, it.stages, it.base, hops + 1, it.env})
			}
		}
		if res.Advance {
			work = append(work, workItem{it.stages[1].PRE, it.stages[1:], it.base + 1,
				nodeproc.ExtendEnv(it.env, it.stages[0], db)})
		}
	}
	return true
}

func sortRows(rows [][]string) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && less(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func less(a, b []string) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}
