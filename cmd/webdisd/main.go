// Webdisd is the WEBDIS query-server daemon: one per participating web
// site, exactly like the paper's per-site Java daemon. It serves the
// documents of its site (from a deterministic generated web, so every
// daemon regenerates the same corpus) and processes web-query clones
// arriving on its TCP endpoint.
//
// A deployment is described by a peers file with one line per site:
//
//	<site-host> <query-addr> [<doc-addr>]
//
// e.g.
//
//	csa.iisc.ernet.in               127.0.0.1:7101 127.0.0.1:7201
//	dsl.serc.iisc.ernet.in          127.0.0.1:7102 127.0.0.1:7202
//
// Start one daemon per line:
//
//	webdisd -web campus -peers peers.txt -site dsl.serc.iisc.ernet.in
//
// and query the deployment with the webdis client.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/server"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
)

func main() {
	spec := flag.String("web", "campus", "web specification shared by all daemons")
	seed := flag.Int64("seed", 1, "generator seed shared by all daemons")
	pages := flag.Int("pages", 0, "scale the generator to at least this many pages (must match the webgen -pages used to build -store)")
	peersPath := flag.String("peers", "", "peers file: '<site> <query-addr> [doc-addr]' per line (required)")
	site := flag.String("site", "", "site this daemon serves (required; must appear in the peers file)")
	dedup := flag.String("dedup", "subsume", "log table mode: off, exact, subsume, strong")
	storeDir := flag.String("store", "", "serve local databases from the persistent site store under this directory (opened if present, built once otherwise; e.g. a webgen -out directory)")
	poolPages := flag.Int("poolpages", 0, "buffer-pool page cap for -store (0 = default)")
	dbcache := flag.Int("dbcache", 0, "retain constructed node databases in an LRU of this many entries (0 = build per evaluation, the paper's default)")
	mutate := flag.Duration("mutate", 0, "apply one step of the seeded web mutation schedule this often (0 = frozen web); give every daemon the same -mutate and -mutseed so their copies of the corpus stay in sync")
	mutseed := flag.Int64("mutseed", 20, "mutation schedule seed shared by all daemons")
	verbose := flag.Bool("v", false, "print the site's trace journal to stderr")
	flag.Parse()

	if *peersPath == "" || *site == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *pages > 0 {
		scaled, err := webgraph.ScaleSpec(*spec, *pages)
		if err != nil {
			fatal(err)
		}
		*spec = scaled
	}
	web, err := webgraph.FromSpec(*spec, *seed)
	if err != nil {
		fatal(err)
	}
	peers, err := readPeers(*peersPath)
	if err != nil {
		fatal(err)
	}
	me, ok := peers[*site]
	if !ok {
		fatal(fmt.Errorf("site %q not in peers file", *site))
	}
	if len(web.URLsAt(*site)) == 0 {
		fatal(fmt.Errorf("web %q has no pages at site %q", *spec, *site))
	}

	tr := netsim.NewTCP()
	for host, p := range peers {
		tr.Register(server.Endpoint(host), p.query)
		if p.docs != "" {
			tr.Register(webserver.Endpoint(host), p.docs)
		}
	}

	host := webserver.NewHost(*site, web)
	if me.docs != "" {
		if err := host.Start(tr); err != nil {
			fatal(err)
		}
		defer host.Stop()
	}

	var opts server.Options
	if *storeDir != "" {
		opts.Store = server.StoreOptions{Dir: *storeDir, PoolPages: *poolPages}
	}
	if *dbcache > 0 {
		opts.CacheDBs = true
		opts.DBCacheEntries = *dbcache
	}
	switch *dedup {
	case "off":
		opts.Dedup = nodeproc.DedupOff
		opts.MaxHops = 64
	case "exact":
		opts.Dedup = nodeproc.DedupExact
	case "subsume":
		opts.Dedup = nodeproc.DedupSubsume
	case "strong":
		opts.Dedup = nodeproc.DedupStrong
	default:
		fatal(fmt.Errorf("unknown dedup mode %q", *dedup))
	}
	if *verbose {
		opts.Journal = trace.NewJournal(*site, 0)
	}

	met := &server.Metrics{}
	s := server.New(*site, host, tr, met, opts)
	if err := s.Start(); err != nil {
		fatal(err)
	}
	defer s.Stop()
	fmt.Printf("webdisd: serving %s (%d pages) on %s\n", *site, len(web.URLsAt(*site)), me.query)

	// -v drains the site journal to stderr a few times a second, and once
	// more on the way out.
	quit := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if opts.Journal == nil {
			return
		}
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				printJournal(opts.Journal)
			case <-quit:
				printJournal(opts.Journal)
				return
			}
		}
	}()

	if *mutate > 0 {
		// Every daemon replays the same deterministic schedule against
		// its own copy of the generated web; this daemon invalidates
		// (and notifies watches) only for mutations landing on its site.
		mut := webgraph.NewMutator(web, webgraph.MutationPlan{Seed: *mutseed})
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*mutate)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				m, ok := mut.Step()
				if !ok {
					return
				}
				edited, rewired := m.Touched()
				mine := func(urls []string) []string {
					var out []string
					for _, u := range urls {
						if webgraph.Host(u) == *site {
							out = append(out, u)
						}
					}
					return out
				}
				if ed, rw := mine(edited), mine(rewired); len(ed)+len(rw) > 0 {
					s.InvalidateDocs(ed, rw)
					fmt.Printf("webdisd: mutation %v\n", m)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(quit)
	<-drained
	m := met.Snapshot()
	fmt.Printf("webdisd: shutting down; evaluations=%d forwards=%d duplicates=%d dead-ends=%d\n",
		m.Evaluations, m.ClonesForwarded+m.LocalClones, m.DupDropped, m.DeadEnds)
}

// printJournal writes the journal's pending events to stderr, one line
// each, and reclaims the ring.
func printJournal(j *trace.Journal) {
	for _, e := range j.Flush() {
		fmt.Fprintf(os.Stderr, "[%s] %-40s %-12s %s %s\n", e.Site, e.Node, e.State, e.Kind, e.Detail)
	}
}

type peer struct {
	query, docs string
}

func readPeers(path string) (map[string]peer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]peer)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("bad peers line %q", line)
		}
		p := peer{query: fields[1]}
		if len(fields) > 2 {
			p.docs = fields[2]
		}
		out[fields[0]] = p
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "webdisd:", err)
	os.Exit(1)
}
