package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"webdis/internal/core"
	"webdis/internal/server"
	"webdis/internal/store"
	"webdis/internal/webgraph"
)

// storeMemBudgetMiB is T19's fixed per-process memory envelope: the
// store-backed arms must serve the big-web workload inside it while the
// unbounded in-RAM engine cannot.
const storeMemBudgetMiB = 6.0

// storePoolPages caps each site's buffer pool in the store arms. 16
// frames x 4 KiB = 64 KiB of resident pages per site — far below one
// site's share of the corpus, so the pool must evict to serve.
const storePoolPages = 16

// StoreRow is one cell of the T19 grid: one database-constructor backend
// on one topology, steady-state repeated queries over one deployment.
type StoreRow struct {
	Topology string `json:"topology"` // campus | bigtree
	Config   string `json:"config"`   // ram | ram-bounded | store | store-noindex
	Runs     int    `json:"runs"`

	MeanMs float64 `json:"mean_ms"`
	P95Ms  float64 `json:"p95_ms"`
	Rows   int     `json:"rows"` // result rows per query (identical down a column)

	// HeapGrowthMiB is the GC-settled heap growth from before the
	// deployment existed to after the measured workload, deployment
	// still serving — the memory the backend needs to hold its sites.
	HeapGrowthMiB float64 `json:"heap_growth_mib"`

	DocsParsed     int64 `json:"docs_parsed"`
	PagesRead      int64 `json:"pages_read"`
	PagesEvicted   int64 `json:"pages_evicted"`
	IndexHits      int64 `json:"index_hits"`
	ColdOpens      int64 `json:"cold_opens"`
	DBCacheEvicted int64 `json:"db_cache_evicted"`
}

// StoreOut is the T19 result.
type StoreOut struct {
	Rows []StoreRow `json:"rows"`

	// The big web against the repo's previously-largest workload (the
	// T18 wire-heavy tree): the subsystem's scale claim.
	WebPages      int     `json:"web_pages"`
	WebBytes      int64   `json:"web_bytes"`
	BaselineBytes int64   `json:"baseline_bytes"`
	WebScale      float64 `json:"web_scale"`

	// Memory headline on the big web: the store arm fits the fixed
	// budget, the unbounded in-RAM arm does not.
	MemBudgetMiB float64 `json:"mem_budget_mib"`
	RamGrowthMiB float64 `json:"ram_growth_mib"`
	StoreGrowMiB float64 `json:"store_growth_mib"`
	MemOK        bool    `json:"mem_ok"`

	// ContainsSpeedup is mean_ms(store-noindex)/mean_ms(store) on the
	// big web: what the persisted text index buys contains-predicates
	// over full text scans (acceptance: > 1).
	ContainsSpeedup float64 `json:"contains_speedup"`
}

// storeBigWeb is the T19 corpus: the same tree family as T18's tree40
// but with long documents — 10x+ the total bytes of anything the repo
// measured before, sized so holding every site's parsed database in RAM
// visibly exceeds the budget.
func storeBigWeb() *webgraph.Web {
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 5, PagesPerSite: 12,
		MarkerFrac: 0.05, FillerWords: 2000, Seed: 19,
	})
}

func storeBigQuery(w *webgraph.Web) string {
	// Two foldable text conjuncts: a selective hit and a never-hit
	// negation. With the index both decide per document from posting
	// lists; without it each costs a full scan of ~12 KB of text.
	return fmt.Sprintf(
		`select d.url from document d such that %q N|(L|G)*5 d where d.text contains %q and d.text not contains "qqfillerzz"`,
		w.First(), webgraph.Marker)
}

// storeConfigs lists the measured backends. "ram" is the engine as of
// PR 8 with footnote-3 retention; "ram-bounded" adds the per-site LRU
// cap (cheap memory bound, paid in re-parses); the store arms serve
// from slotted pages through the bounded buffer pool, with and without
// the persisted text index.
func storeConfigs() []struct {
	Name    string
	Opts    server.Options
	Store   bool
	NoIndex bool
} {
	ram := server.Options{CacheDBs: true, Workers: 4}
	bounded := ram
	bounded.DBCacheEntries = 4
	st := server.Options{Workers: 4}
	return []struct {
		Name    string
		Opts    server.Options
		Store   bool
		NoIndex bool
	}{
		{"ram", ram, false, false},
		{"ram-bounded", bounded, false, false},
		{"store", st, true, false},
		{"store-noindex", st, true, true},
	}
}

func storeWorkloads() []perfWorkload {
	return []perfWorkload{
		{"campus", webgraph.Campus, func(*webgraph.Web) string { return webgraph.CampusDISQL }},
		{"bigtree", storeBigWeb, storeBigQuery},
	}
}

// Store runs T19: the persistent site store against the in-RAM Database
// Constructor — heap ceiling and latency on a web an order of magnitude
// beyond the repo's previous largest, plus what the on-disk text index
// buys contains-predicates; writes the grid to BENCH_PR9.json.
func Store(w io.Writer) (*StoreOut, error) {
	return storeRun(w, 8, "BENCH_PR9.json")
}

// storeRun is the parameterized body; outPath == "" skips the JSON
// artifact (the shape test's mode).
func storeRun(w io.Writer, runs int, outPath string) (*StoreOut, error) {
	out := &StoreOut{MemBudgetMiB: storeMemBudgetMiB}
	big := storeBigWeb()
	out.WebPages = big.NumPages()
	out.WebBytes = big.TotalBytes()
	out.BaselineBytes = wireTreeWeb().TotalBytes()
	out.WebScale = float64(out.WebBytes) / float64(out.BaselineBytes)
	big = nil

	answers := make(map[string]string)
	for _, wl := range storeWorkloads() {
		for _, cfg := range storeConfigs() {
			row, answer, err := storeCell(wl, cfg.Name, cfg.Opts, cfg.Store, cfg.NoIndex, runs)
			if err != nil {
				return nil, fmt.Errorf("store %s/%s: %w", wl.Name, cfg.Name, err)
			}
			if prev, ok := answers[wl.Name]; !ok {
				answers[wl.Name] = answer
			} else if prev != answer {
				return nil, fmt.Errorf("store %s: config %s changed the answer", wl.Name, cfg.Name)
			}
			out.Rows = append(out.Rows, *row)
		}
	}

	var storeMean, noixMean float64
	for _, r := range out.Rows {
		if r.Topology != "bigtree" {
			continue
		}
		switch r.Config {
		case "ram":
			out.RamGrowthMiB = r.HeapGrowthMiB
		case "store":
			out.StoreGrowMiB = r.HeapGrowthMiB
			storeMean = r.MeanMs
		case "store-noindex":
			noixMean = r.MeanMs
		}
	}
	out.MemOK = out.StoreGrowMiB <= storeMemBudgetMiB && out.RamGrowthMiB > storeMemBudgetMiB
	if storeMean > 0 {
		out.ContainsSpeedup = noixMean / storeMean
	}

	fmt.Fprintln(w, "T19: persistent site store — slotted pages + buffer pool vs in-RAM databases")
	fmt.Fprintf(w, "(big web: %d pages, %s — %.1fx the previous largest corpus of %s;\n",
		out.WebPages, fmtBytes(out.WebBytes), out.WebScale, fmtBytes(out.BaselineBytes))
	fmt.Fprintln(w, " per cell: one deployment, 2 warmup queries, then", runs, "measured;")
	fmt.Fprintln(w, " store arms cold-open pre-built stores — parsing zero documents is enforced)")
	fmt.Fprintln(w)
	rows := make([][]string, 0, len(out.Rows))
	for _, r := range out.Rows {
		rows = append(rows, []string{
			r.Topology, r.Config,
			fmt.Sprintf("%.2f", r.MeanMs),
			fmt.Sprintf("%.2f", r.P95Ms),
			fmt.Sprintf("%d", r.Rows),
			fmt.Sprintf("%.2f", r.HeapGrowthMiB),
			fmt.Sprintf("%d", r.DocsParsed),
			fmt.Sprintf("%d/%d", r.PagesRead, r.PagesEvicted),
			fmt.Sprintf("%d", r.IndexHits),
			fmt.Sprintf("%d", r.ColdOpens),
			fmt.Sprintf("%d", r.DBCacheEvicted),
		})
	}
	table(w, []string{"topology", "config", "mean ms", "p95 ms", "rows", "heap MiB", "parsed", "pages r/e", "ixhits", "coldopen", "dbevict"}, rows)
	fmt.Fprintf(w, "\nheadline: big-web heap growth %.2f MiB (store) vs %.2f MiB (ram) against a %.0f MiB budget — mem_ok=%v\n",
		out.StoreGrowMiB, out.RamGrowthMiB, out.MemBudgetMiB, out.MemOK)
	fmt.Fprintf(w, "indexed contains runs %.2fx faster than full text scans (store-noindex/store)\n", out.ContainsSpeedup)

	if outPath != "" {
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "machine-readable grid written to %s\n", outPath)
	}
	return out, nil
}

// storeCell measures one backend on one topology. Store arms pre-build
// the site stores from one instance of the corpus, then deploy against
// a second, never-rendered instance: every page the engine serves can
// only have come off disk, and the deployment's ColdOpens/DocsParsed
// counters prove it (enforced here, not just reported).
func storeCell(wl perfWorkload, config string, opts server.Options, useStore, noIndex bool, runs int) (*StoreRow, string, error) {
	web := wl.Web()
	src := wl.Query(web)
	if useStore {
		dir, err := os.MkdirTemp("", "webdis-t19-*")
		if err != nil {
			return nil, "", err
		}
		defer os.RemoveAll(dir)
		get := func(u string) ([]byte, error) {
			html, ok := web.HTML(u)
			if !ok {
				return nil, fmt.Errorf("no page at %s", u)
			}
			return html, nil
		}
		for _, host := range web.Hosts() {
			st, err := store.Build(dir, host, web.URLsAt(host), get, store.Options{NoTextIndex: noIndex})
			if err != nil {
				return nil, "", err
			}
			st.Close()
		}
		web = wl.Web() // fresh corpus: the deployment must serve from pages
		opts.Store = server.StoreOptions{Dir: dir, PoolPages: storePoolPages, NoTextIndex: noIndex}
	}
	nsites := web.NumSites()

	g0 := heapMiB()
	d, err := core.NewDeployment(core.Config{Web: web, Exec: core.ExecConfig{Server: opts, NoDocService: true}})
	if err != nil {
		return nil, "", err
	}
	defer d.Close()

	answer := ""
	nrows := 0
	runOne := func() (time.Duration, error) {
		start := time.Now()
		q, err := d.Run(src, 30*time.Second)
		if err != nil {
			return 0, err
		}
		el := time.Since(start)
		var flat []string
		nrows = 0
		for _, t := range q.Results() {
			nrows += len(t.Rows)
			for _, r := range t.Rows {
				flat = append(flat, fmt.Sprintf("%d:%q", t.Stage, r))
			}
		}
		if nrows == 0 {
			return 0, fmt.Errorf("query delivered no rows")
		}
		sort.Strings(flat)
		answer = strings.Join(flat, "\n")
		return el, nil
	}

	for i := 0; i < 2; i++ {
		if _, err := runOne(); err != nil {
			return nil, "", err
		}
	}
	lat := make([]time.Duration, 0, runs)
	var total time.Duration
	for i := 0; i < runs; i++ {
		el, err := runOne()
		if err != nil {
			return nil, "", err
		}
		lat = append(lat, el)
		total += el
	}
	g1 := heapMiB() // deployment still serving: caches, pools and indexes are live
	snap := d.Metrics().Snapshot()

	if useStore {
		if snap.ColdOpens != int64(nsites) {
			return nil, "", fmt.Errorf("cold-opened %d stores, want %d", snap.ColdOpens, nsites)
		}
		if snap.StoreBuilds != 0 || snap.DocsParsed != 0 {
			return nil, "", fmt.Errorf("store arm rebuilt %d stores and parsed %d docs, want 0/0",
				snap.StoreBuilds, snap.DocsParsed)
		}
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p95 := lat[(len(lat)*95+99)/100-1]
	row := &StoreRow{
		Topology: wl.Name, Config: config, Runs: runs,
		MeanMs:         float64(total.Microseconds()) / float64(runs) / 1e3,
		P95Ms:          float64(p95.Microseconds()) / 1e3,
		Rows:           nrows,
		HeapGrowthMiB:  g1 - g0,
		DocsParsed:     snap.DocsParsed,
		PagesRead:      snap.PagesRead,
		PagesEvicted:   snap.PagesEvicted,
		IndexHits:      snap.IndexHits,
		ColdOpens:      snap.ColdOpens,
		DBCacheEvicted: snap.DBCacheEvicted,
	}
	return row, answer, nil
}

// heapMiB returns the GC-settled live heap in MiB.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
