// Package centralized implements the data-shipping baseline the WEBDIS
// paper argues against (Section 1): every document on the query's PRE
// frontier is downloaded from its home site to the user-site and the whole
// web-query is evaluated locally. It visits every node through the same
// nodeproc.Visitor as the distributed engine, so both compute identical
// result sets — the differential tests rely on this —
// while the traffic profile differs exactly the way the paper predicts:
// document bytes cross the network instead of query clones. A query's
// output contract (aggregates, GROUP BY, ORDER BY, LIMIT) is applied by a
// reference fold of its own (output.go), the oracle the engine's
// site-side folds are judged against.
package centralized

import (
	"fmt"
	"time"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
	"webdis/internal/webserver"
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
	if w.StartTerm != "" {
		return nil, fmt.Errorf("centralized: index(%q) StartNodes must be resolved by the caller", w.StartTerm)
	}
	start := time.Now()
	r := &run{
		opts:     opts,
		final:    len(w.Stages) - 1,
		grouped:  w.Output.Grouped(),
		fetcher:  webserver.NewFetcher(tr, from),
		cache:    make(map[string][]byte),
		tables:   make(map[int]*client.ResultTable),
		contribs: make(map[string]contribution),
		seen:     make(map[string]bool),
	}
	v := nodeproc.Visitor{
		Log:            nodeproc.NewLogTable(opts.Dedup),
		Query:          1,
		StrictDeadEnds: opts.StrictDeadEnds,
		MaxHops:        opts.MaxHops,
	}
	for _, node := range w.Start {
		r.frontier = append(r.frontier, nodeproc.Arrival{Node: node, Rem: w.Stages[0].PRE, Stages: w.Stages})
	}
	// Breadth-first over the frontier, every node visited by the same
	// process() the query servers run.
	for len(r.frontier) > 0 {
		a := r.frontier[0]
		r.frontier = r.frontier[1:]
		v.Visit(r, a)
	}
	r.st.Evaluations = int(v.Counts.Evaluations)
	r.st.DeadEnds = int(v.Counts.DeadEnds)
	r.st.DupDropped = int(v.Counts.DupDropped)
	r.st.DupRewritten = int(v.Counts.DupRewritten)
	r.st.Duration = time.Since(start)

	res := &Result{Stats: r.st}
	for base := 0; base < len(w.Stages); base++ {
		t := r.tables[base]
		switch {
		case base == r.final && r.grouped:
			res.Tables = append(res.Tables, groupTable(w.Output, base, r.contribs))
		case t != nil && base == r.final && w.Output != nil:
			t.Rows = orderLimit(t.Rows, t.Cols, w.Output)
			res.Tables = append(res.Tables, *t)
		case t != nil:
			nodequery.SortRows(t.Rows)
			res.Tables = append(res.Tables, *t)
		}
	}
	return res, nil
}

// run is one centralized evaluation: the nodeproc.Host that downloads
// the documents, collects the rows and keeps the breadth-first frontier.
type run struct {
	opts     Options
	fetcher  *webserver.Fetcher
	cache    map[string][]byte
	st       Stats
	tables   map[int]*client.ResultTable
	seen     map[string]bool // stage and row of every row collected
	frontier []nodeproc.Arrival
	// final is the last stage; grouped says its rows are aggregate input,
	// kept per contribution in contribs, not merged into tables.
	final    int
	grouped  bool
	contribs map[string]contribution
}

// Load downloads (or takes from the per-query cache) and parses a
// document. A floating link or unreachable site fails the node, which is
// skipped like the engine skips it.
func (r *run) Load(url string) (*relmodel.DB, error) {
	content, ok := r.cache[url]
	if ok {
		r.st.CacheHits++
	} else {
		var err error
		if content, err = r.fetcher.Get(url); err != nil {
			return nil, err
		}
		r.st.Fetches++
		r.st.BytesDownloaded += int64(len(content))
		if !r.opts.NoCache {
			r.cache[url] = content
		}
	}
	return nodeproc.BuildDB(url, content)
}

// Rows merges one node's answer into its stage's table, deduplicated. A
// grouped query's final-stage answer is kept whole instead, once per
// (node, environment): one contribution to the aggregates.
func (r *run) Rows(a nodeproc.Arrival, tbl *nodequery.Table) {
	if a.Base == r.final && r.grouped {
		key := fmt.Sprint(a.Node, a.Env)
		if _, dup := r.contribs[key]; !dup {
			r.contribs[key] = contribution{cols: tbl.Cols, rows: tbl.Rows, env: a.Env}
		}
		return
	}
	rt := r.tables[a.Base]
	if rt == nil {
		rt = &client.ResultTable{Stage: a.Base, Cols: tbl.Cols}
		r.tables[a.Base] = rt
	}
	for _, row := range tbl.Rows {
		if key := fmt.Sprint(a.Base, row); !r.seen[key] {
			r.seen[key] = true
			rt.Rows = append(rt.Rows, row)
		}
	}
}

// Forward appends the targets to the frontier, one link further on.
func (r *run) Forward(fw nodeproc.Forward, a nodeproc.Arrival) {
	for _, tgt := range fw.Targets {
		r.frontier = append(r.frontier, nodeproc.Arrival{
			Node: tgt.URL, Rem: fw.Rem, Stages: a.Stages, Base: a.Base, Env: a.Env, Hops: a.Hops + 1,
		})
	}
}
