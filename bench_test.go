package webdis

// One benchmark per figure and experiment of the paper reproduction (see
// DESIGN.md's experiment index), plus micro-benchmarks for the engine's
// hot paths. End-to-end benchmarks run a full query per iteration over a
// shared deployment and report engine counters with b.ReportMetric, so
// `go test -bench . -benchmem` regenerates every number the paper's
// evaluation implies.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"webdis/internal/disql"
	"webdis/internal/htmlx"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/plan"
	"webdis/internal/pre"
	"webdis/internal/relmodel"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// ---------------------------------------------------------------------------
// Micro-benchmarks: the engine's hot paths.

func BenchmarkPREParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pre.Parse("N | G·(L*4)·(G|L)*2"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPREDerive(b *testing.B) {
	e := pre.MustParse("G·(L*4)·(G|L)*2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := pre.Derive(e, pre.Global)
		if pre.IsNone(d) {
			b.Fatal("dead derivative")
		}
	}
}

func BenchmarkPRECompare(b *testing.B) {
	old := pre.MustParse("L*2·G")
	new := pre.MustParse("L*4·G")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pre.Compare(old, new) != pre.NewCovers {
			b.Fatal("unexpected relation")
		}
	}
}

func BenchmarkPREDFAContains(b *testing.B) {
	super := pre.MustParse("(G|L)*6")
	sub := pre.MustParse("G·L*4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := pre.Contains(super, sub)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkHTMLParse(b *testing.B) {
	web := webgraph.Campus()
	html, _ := web.HTML(webgraph.CampusStart)
	b.SetBytes(int64(len(html)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htmlx.Parse(webgraph.CampusStart, html); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatabaseConstructor(b *testing.B) {
	web := webgraph.Campus()
	html, _ := web.HTML(webgraph.CampusLabs)
	doc, err := htmlx.Parse(webgraph.CampusLabs, html)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := relmodel.Build(doc)
		if n, err := db.Size(); err != nil || n == 0 {
			b.Fatal("empty db")
		}
	}
}

func BenchmarkNodeQueryEval(b *testing.B) {
	web := webgraph.Campus()
	html, _ := web.HTML("http://dsl.serc.iisc.ernet.in/people.html")
	db, err := nodeproc.BuildDB("http://dsl.serc.iisc.ernet.in/people.html", html)
	if err != nil {
		b.Fatal(err)
	}
	wq := disql.MustParse(webgraph.CampusDISQL)
	q := wq.Stages[1].Query
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, _, err := plan.Eval(q, db, nil)
		if err != nil || tbl.Empty() {
			b.Fatal(tbl, err)
		}
	}
}

func BenchmarkDISQLParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := disql.Parse(webgraph.CampusDISQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogTableCheck(b *testing.B) {
	lt := nodeproc.NewLogTable(nodeproc.DedupSubsume)
	id := wire.QueryID{User: "b", Site: "user/q1", Num: 1}
	rems := []pre.Expr{
		pre.MustParse("L*4·G"), pre.MustParse("L*2·G"),
		pre.MustParse("G|L"), pre.MustParse("N"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := fmt.Sprintf("http://n%d.example/x.html", i%64)
		lt.Check(node, id, 1, rems[i%len(rems)], "")
	}
}

func BenchmarkWireCloneRoundTrip(b *testing.B) {
	wq := disql.MustParse(webgraph.CampusDISQL)
	msg := &wire.CloneMsg{
		ID:     wire.QueryID{User: "b", Site: "user/q1", Num: 1},
		Dest:   []wire.DestNode{{URL: webgraph.CampusStart, Origin: "user/q1", Seq: 1}},
		Rem:    "G·L*1",
		Stages: nodeproc.EncodeStages(wq.Stages),
	}
	p1, p2 := net.Pipe()
	c1, c2 := wire.NewFramed(p1), wire.NewFramed(p2)
	defer c1.Close()
	defer c2.Close()
	go func() {
		for {
			if _, err := wire.Receive(c2); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.Send(c1, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure benchmarks: one full distributed query per iteration.

// benchQuery measures one full distributed query per iteration. The
// deployment is shared across iterations — starting servers per iteration
// would swamp the measurement — which is safe because queries are
// independent (log tables key by query id).
func benchQuery(b *testing.B, web *Web, opts ServerOptions, src string, metrics ...func(*Deployment, int)) {
	b.Helper()
	d, err := NewDeployment(Config{Web: web, Exec: ExecConfig{Server: opts, NoDocService: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := d.Run(src, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if len(q.Results()) == 0 {
			b.Fatal("no results")
		}
	}
	b.StopTimer()
	for _, m := range metrics {
		m(d, b.N)
	}
}

// BenchmarkFigure1Traversal regenerates Figure 1 (experiment F1).
func BenchmarkFigure1Traversal(b *testing.B) {
	benchQuery(b, Figure1Web(), ServerOptions{}, Figure1Query,
		func(d *Deployment, n int) {
			m := d.Metrics().Snapshot()
			b.ReportMetric(float64(m.Evaluations)/float64(n), "evals/op")
			b.ReportMetric(float64(m.DupDropped)/float64(n), "dups/op")
		})
}

// BenchmarkFigure5Dedup regenerates Figure 5 with the log table on (F5).
func BenchmarkFigure5Dedup(b *testing.B) {
	benchQuery(b, Figure5Web(), ServerOptions{}, Figure5Query,
		func(d *Deployment, n int) {
			m := d.Metrics().Snapshot()
			b.ReportMetric(float64(m.Evaluations)/float64(n), "evals/op")
			b.ReportMetric(float64(m.DupDropped)/float64(n), "dups/op")
		})
}

// BenchmarkFigure5NoDedup is the F5 ablation: the log table off.
func BenchmarkFigure5NoDedup(b *testing.B) {
	benchQuery(b, Figure5Web(), ServerOptions{Dedup: DedupOff, MaxHops: 16}, Figure5Query,
		func(d *Deployment, n int) {
			m := d.Metrics().Snapshot()
			b.ReportMetric(float64(m.Evaluations)/float64(n), "evals/op")
		})
}

// BenchmarkCampusQuery regenerates the Section 5 execution (F7/F8).
func BenchmarkCampusQuery(b *testing.B) {
	benchQuery(b, CampusWeb(), ServerOptions{}, CampusQuery,
		func(d *Deployment, n int) {
			m := d.Metrics().Snapshot()
			b.ReportMetric(float64(m.Evaluations)/float64(n), "evals/op")
			b.ReportMetric(float64(d.Network().Stats().Snapshot().Total().Bytes)/float64(n), "netbytes/op")
		})
}

// ---------------------------------------------------------------------------
// Experiment benchmarks (T1-T7): the table-generating comparisons.

// BenchmarkShipping regenerates experiment T1's depth-3 point: the same
// selective query by query shipping and by data shipping.
func BenchmarkShipping(b *testing.B) {
	web := TreeWeb(TreeOpts{Fanout: 3, Depth: 3, PagesPerSite: 4, MarkerFrac: 0.05, Seed: 42})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)* d where d.text contains "xanadu"`, web.First())

	b.Run("query-shipping", func(b *testing.B) {
		benchQuery(b, web, ServerOptions{}, src,
			func(d *Deployment, n int) {
				bytes := d.Network().Stats().Snapshot().Total().Bytes
				b.ReportMetric(float64(bytes)/float64(n), "netbytes/op")
			})
	})
	b.Run("data-shipping", func(b *testing.B) {
		d, err := NewDeployment(Config{Web: web})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		w, err := ParseDISQL(src)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunCentralized(d, w, CentralizedOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		bytes := d.Network().Stats().Snapshot().Total().Bytes
		b.ReportMetric(float64(bytes)/float64(b.N), "netbytes/op")
	})
}

// BenchmarkLatency regenerates experiment T2's 2ms point.
func BenchmarkLatency(b *testing.B) {
	const lat = 2 * time.Millisecond
	b.Run("query-shipping", func(b *testing.B) {
		d, err := NewDeployment(Config{Web: CampusWeb(), Net: NetOptions{Latency: lat}, Exec: ExecConfig{NoDocService: true}})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(CampusQuery, 30*time.Second); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("data-shipping", func(b *testing.B) {
		d, err := NewDeployment(Config{Web: CampusWeb(), Net: NetOptions{Latency: lat}})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		w, err := ParseDISQL(CampusQuery)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunCentralized(d, w, CentralizedOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDedupAblation regenerates experiment T3: one sub-benchmark per
// log-table mode over the densely cross-linked web.
func BenchmarkDedupAblation(b *testing.B) {
	web := RandomWeb(RandomOpts{Sites: 24, PagesPerSite: 1, GlobalOut: 3, MarkerFrac: 0.4, FillerWords: 60, Seed: 31})
	src := fmt.Sprintf(`select d.url from document d such that %q N|G*6 d where d.text contains "xanadu"`, web.First())
	modes := []struct {
		name string
		opts ServerOptions
	}{
		{"off", ServerOptions{Dedup: DedupOff, MaxHops: 10}},
		{"exact", ServerOptions{Dedup: DedupExact}},
		{"subsume", ServerOptions{}},
		{"strong", ServerOptions{Dedup: DedupStrong}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			benchQuery(b, web, m.opts, src,
				func(d *Deployment, n int) {
					ms := d.Metrics().Snapshot()
					b.ReportMetric(float64(ms.Evaluations)/float64(n), "evals/op")
					b.ReportMetric(float64(ms.DupDropped)/float64(n), "dropped/op")
				})
		})
	}
}

// BenchmarkBatchingAblation regenerates experiment T4.
func BenchmarkBatchingAblation(b *testing.B) {
	web := TreeWeb(TreeOpts{Fanout: 4, Depth: 4, PagesPerSite: 4, Seed: 7})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)* d where d.url contains "p"`, web.First())
	for _, cfg := range []struct {
		name string
		opts ServerOptions
	}{
		{"batched", ServerOptions{}},
		{"per-node", ServerOptions{NoBatch: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchQuery(b, web, cfg.opts, src,
				func(d *Deployment, n int) {
					m := d.Metrics().Snapshot()
					b.ReportMetric(float64(m.ClonesForwarded+m.LocalClones)/float64(n), "clones/op")
					b.ReportMetric(float64(d.Network().Stats().Snapshot().Total().Bytes)/float64(n), "netbytes/op")
				})
		})
	}
}

// BenchmarkCHTOverhead regenerates experiment T5: what the completion
// protocol costs per query.
func BenchmarkCHTOverhead(b *testing.B) {
	d, err := NewDeployment(Config{Web: CampusWeb(), Exec: ExecConfig{NoDocService: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var entries, msgs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := d.Run(CampusQuery, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		st := q.Stats()
		entries += st.EntriesAdded
		msgs += st.ResultMsgs
	}
	b.StopTimer()
	b.ReportMetric(float64(entries)/float64(b.N), "cht-entries/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "result-msgs/op")
}

// BenchmarkTermination regenerates experiment T6's core measurement: how
// long a cancelled query keeps the web busy.
func BenchmarkTermination(b *testing.B) {
	web := ChainWeb(30, 1, 9)
	src := fmt.Sprintf(`select d.url from document d such that %q N|G* d`, web.First())
	d, err := NewDeployment(Config{Web: web, Net: NetOptions{Latency: time.Millisecond}, Exec: ExecConfig{NoDocService: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := d.SubmitDISQL(src)
		if err != nil {
			b.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		q.Cancel()
		// Wait until the cancelled query's clone dies.
		start := d.Metrics().Terminated.Load()
		for d.Metrics().Terminated.Load() == start {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// BenchmarkRewrite regenerates experiment T7's hot path: a superset
// arrival hitting a populated log table.
func BenchmarkRewrite(b *testing.B) {
	id := wire.QueryID{User: "b", Site: "user/q1", Num: 1}
	small := pre.MustParse("L*2·G")
	big := pre.MustParse("L*4·G")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt := nodeproc.NewLogTable(nodeproc.DedupSubsume)
		lt.Check("http://n.example/x.html", id, 1, small, "")
		v := lt.Check("http://n.example/x.html", id, 1, big, "")
		if v.Action != nodeproc.Rewrite {
			b.Fatal(v.Action)
		}
	}
}

// BenchmarkMigration regenerates experiment T8's 50% point: the hybrid
// engine with half the sites participating.
func BenchmarkMigration(b *testing.B) {
	web := TreeWeb(TreeOpts{Fanout: 3, Depth: 3, PagesPerSite: 4, MarkerFrac: 0.1, FillerWords: 300, Seed: 17})
	hosts := web.Hosts()
	set := make(map[string]bool)
	for _, h := range hosts[:len(hosts)/2] {
		set[h] = true
	}
	d, err := NewDeployment(Config{Web: web, Exec: ExecConfig{Participate: func(s string) bool { return set[s] }}})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)* d where d.text contains "xanadu"`, web.First())
	var fetches int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := d.Run(src, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		fetches += q.FallbackStats().Fetches
	}
	b.StopTimer()
	b.ReportMetric(float64(fetches)/float64(b.N), "fallback-fetches/op")
	b.ReportMetric(float64(d.Network().Stats().Snapshot().Total().Bytes)/float64(b.N), "netbytes/op")
}

// ---------------------------------------------------------------------------
// Hot-path benchmarks: connection pooling, parse caching, parallel
// fan-out. End to end the same path is measured by the yardstick's
// fanout-tcp and tree40-docs workloads (go run ./benchmark).

// BenchmarkParseStagesCached measures the compiled-query cache against
// the parse-per-arrival path it replaces, on the campus query's stages.
func BenchmarkParseStagesCached(b *testing.B) {
	wq := disql.MustParse(webgraph.CampusDISQL)
	msgs := nodeproc.EncodeStages(wq.Stages)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nodeproc.ParseStages(msgs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := nodeproc.ParseStagesCached(msgs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSendPooled measures one framed message delivery with and
// without connection reuse, over the in-process fabric and real TCP.
func BenchmarkSendPooled(b *testing.B) {
	msg := &wire.ResultMsg{ID: wire.QueryID{User: "b", Site: "user/q1", Num: 1}}
	run := func(b *testing.B, tr netsim.Transport, pooled bool) {
		ln, err := tr.Listen("sink")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer c.Close()
					framed := wire.NewFramed(c)
					for {
						if _, err := wire.Receive(framed); err != nil {
							return
						}
					}
				}()
			}
		}()
		b.ResetTimer()
		if pooled {
			p := netsim.NewPool(tr, "src", netsim.PoolOptions{
				Wrap: func(c net.Conn) net.Conn { return wire.NewFramed(c) },
			})
			defer p.Close()
			for i := 0; i < b.N; i++ {
				c, _, err := p.Get("sink")
				if err != nil {
					b.Fatal(err)
				}
				if err := wire.Send(c, msg); err != nil {
					b.Fatal(err)
				}
				p.Put("sink", c)
			}
			return
		}
		for i := 0; i < b.N; i++ {
			c, err := tr.Dial("src", "sink")
			if err != nil {
				b.Fatal(err)
			}
			if err := wire.Send(c, msg); err != nil {
				b.Fatal(err)
			}
			c.Close()
		}
	}
	b.Run("pipe/dial-per-msg", func(b *testing.B) { run(b, netsim.New(netsim.Options{}), false) })
	b.Run("pipe/pooled", func(b *testing.B) { run(b, netsim.New(netsim.Options{}), true) })
	b.Run("tcp/dial-per-msg", func(b *testing.B) { run(b, netsim.NewTCP(), false) })
	b.Run("tcp/pooled", func(b *testing.B) { run(b, netsim.NewTCP(), true) })
}

// BenchmarkTreeHotPath is the end-to-end fan-out benchmark: one full
// query over the 40-site tree per iteration with retained databases and
// four Query Processor workers.
func BenchmarkTreeHotPath(b *testing.B) {
	web := TreeWeb(TreeOpts{Fanout: 3, Depth: 3, PagesPerSite: 1, MarkerFrac: 0.6, FillerWords: 30, Seed: 7})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(G*3) d where d.text contains %q`,
		web.First(), webgraph.Marker)
	benchQuery(b, web, ServerOptions{CacheDBs: true, Workers: 4}, src,
		func(d *Deployment, n int) {
			m := d.Metrics().Snapshot()
			b.ReportMetric(float64(m.ConnReused)/float64(n), "conn-reused/op")
			b.ReportMetric(float64(m.ConnDialed)/float64(n), "conn-dialed/op")
			b.ReportMetric(float64(m.ParseCacheHits)/float64(n), "parse-hits/op")
		})
}
