package main

// adapter.go is the only file of the benchmark that touches the engine.
// Everything else works on the plain types declared here, so an engine
// refactor has one file to follow. It binds only to API the ROADMAP keeps:
// the nested Config.Exec/Storage/Watch groups, the deployment's counters
// and journals, and each layer's public entry points.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/core"
	"webdis/internal/disql"
	"webdis/internal/htmlx"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/plan"
	"webdis/internal/relmodel"
	"webdis/internal/sched"
	"webdis/internal/server"
	"webdis/internal/store"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// ---------------------------------------------------------------------------
// Webs and queries.

// treeSpec mirrors webgraph.TreeOpts without the seed.
type treeSpec struct {
	Fanout, Depth, PagesPerSite int
	MarkerFrac                  float64
	FillerWords                 int
}

// web is one generated corpus.
type web struct{ w *webgraph.Web }

func campusWeb() *web { return &web{webgraph.Campus()} }

func treeWeb(t treeSpec, seed int64) *web {
	return &web{webgraph.Tree(webgraph.TreeOpts{
		Fanout: t.Fanout, Depth: t.Depth, PagesPerSite: t.PagesPerSite,
		MarkerFrac: t.MarkerFrac, FillerWords: t.FillerWords, Seed: seed,
	})}
}

func (w *web) first() string   { return w.w.First() }
func (w *web) pages() int      { return w.w.NumPages() }
func (w *web) sites() int      { return w.w.NumSites() }
func (w *web) hosts() []string { return w.w.Hosts() }

// markerPages counts the pages carrying the generators' marker token,
// reading page items so the web stays unrendered.
func (w *web) markerPages() int {
	n := 0
	for _, u := range w.w.URLs() {
		for _, it := range w.w.Page(u).Items {
			if it.Kind == webgraph.Text && strings.Contains(it.Text, webgraph.Marker) {
				n++
				break
			}
		}
	}
	return n
}

const campusQuery = webgraph.CampusDISQL

// markerQuery selects cols of every document within pre of the web's
// first page whose text holds the marker; extra is appended to the
// where-clause.
func markerQuery(w *web, cols, pre, extra string) string {
	return fmt.Sprintf(`select %s from document d such that %q %s d where d.text contains %q%s`,
		cols, w.first(), pre, webgraph.Marker, extra)
}

// ---------------------------------------------------------------------------
// Result rows.

// rowSet is an order-independent digest of result tables: comparing two
// costs no allocation, so the per-op oracle check stays out of the
// allocation and CPU figures.
type rowSet struct {
	N        int
	Sum, Xor uint64
}

func digest(tables []client.ResultTable) rowSet {
	var rs rowSet
	for _, t := range tables {
		for _, row := range t.Rows {
			h := uint64(14695981039346656037) ^ uint64(t.Stage)
			h *= 1099511628211
			for _, cell := range row {
				for i := 0; i < len(cell); i++ {
					h ^= uint64(cell[i])
					h *= 1099511628211
				}
				h ^= 0xff // cell boundary
				h *= 1099511628211
			}
			rs.N++
			rs.Sum += h
			rs.Xor ^= h
		}
	}
	return rs
}

// oracleRows evaluates src by centralized data shipping on a throw-away
// deployment of w — the reference answer every timed op is held to.
func oracleRows(w *web, src string) (rowSet, error) {
	d, err := core.NewDeployment(core.Config{Web: w.w})
	if err != nil {
		return rowSet{}, err
	}
	defer d.Close()
	q, err := disql.Parse(src)
	if err != nil {
		return rowSet{}, err
	}
	res, err := centralized.Run(d.Network(), "centralized/results", q, centralized.Options{})
	if err != nil {
		return rowSet{}, err
	}
	return digest(res.Tables), nil
}

// ---------------------------------------------------------------------------
// Deployments.

type deployOpts struct {
	TCP          bool   // real loopback sockets instead of the pipe fabric
	CacheDBs     bool   // retain node databases (webdisd -dbcache)
	StoreDir     string // serve from pre-built stores under this directory
	PoolPages    int
	MutationSeed int64 // non-zero arms the seeded mutation schedule
	Trace        bool
}

type deployment struct {
	d     *core.Deployment
	stats *netsim.Stats
	sites []string
}

func deploy(w *web, o deployOpts) (*deployment, error) {
	cfg := core.Config{Web: w.w}
	cfg.Exec.NoDocService = true
	cfg.Exec.Server.CacheDBs = o.CacheDBs
	cfg.Exec.Trace = o.Trace
	if o.StoreDir != "" {
		cfg.Storage = server.StoreOptions{Dir: o.StoreDir, PoolPages: o.PoolPages}
	}
	if o.MutationSeed != 0 {
		cfg.Watch.Mutations = webgraph.MutationPlan{Seed: o.MutationSeed}
	}
	var stats *netsim.Stats
	if o.TCP {
		tcp := netsim.NewTCP()
		cfg.Exec.Transport = tcp
		stats = tcp.Stats()
	}
	d, err := core.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	if stats == nil {
		stats = d.Network().Stats()
	}
	return &deployment{d: d, stats: stats, sites: w.w.Hosts()}, nil
}

func (d *deployment) close() { d.d.Close() }

// opTimeout bounds one operation; exceeding it fails the op.
const opTimeout = 30 * time.Second

// runQuery runs src to completion and returns its rows. A non-nil error
// means the op failed: it errored or timed out, its answer was qualified
// (partial, shed, expired), or the CHT did not drain.
func (d *deployment) runQuery(src string) (rowSet, error) {
	q, err := d.d.Run(src, opTimeout)
	if err != nil {
		return rowSet{}, err
	}
	rows := digest(q.Results())
	return rows, queryFault(q)
}

func queryFault(q *client.Query) error {
	if err := q.Err(); err != nil {
		return err
	}
	if q.Partial() || q.Shed() || q.Expired() {
		return errors.New("qualified answer")
	}
	if n := q.LiveEntries(); n != 0 {
		return fmt.Errorf("%d CHT entries still live at completion", n)
	}
	return nil
}

// counters is the cumulative state of everything the engine counts;
// metrics are deltas between two readings.
type counters [nCounters]int64

const (
	cWireBytes = iota
	cWireMsgs
	cDials
	cCloneMsgs
	cResultMsgs
	cDocsParsed
	cDBCacheHits
	cEvaluations
	cPureRoutes
	cDupDropped
	cRowsScanned
	cRowsEmitted
	cPagesRead
	cPagesEvicted
	cIndexHits
	cColdOpens
	cConnDialed
	cConnReused
	cDeltasSent
	nCounters
)

func (d *deployment) counters() counters {
	t := d.stats.Snapshot().Total()
	s := d.d.Metrics().Snapshot()
	return counters{
		cWireBytes: t.Bytes, cWireMsgs: t.Messages, cDials: t.Dials,
		cCloneMsgs: t.ByKind[wire.KindClone], cResultMsgs: t.ByKind[wire.KindResult],
		cDocsParsed: s.DocsParsed, cDBCacheHits: s.DBCacheHits,
		cEvaluations: s.Evaluations, cPureRoutes: s.PureRoutes, cDupDropped: s.DupDropped,
		cRowsScanned: s.RowsScanned, cRowsEmitted: s.RowsEmitted,
		cPagesRead: s.PagesRead, cPagesEvicted: s.PagesEvicted,
		cIndexHits: s.IndexHits, cColdOpens: s.ColdOpens,
		cConnDialed: s.ConnDialed, cConnReused: s.ConnReused,
		cDeltasSent: s.DeltasSent,
	}
}

// queuePeak is the deepest any site's clone queue has been since the
// deployment started.
func (d *deployment) queuePeak() int {
	peak := 0
	for _, site := range d.sites {
		if s := d.d.Server(site); s != nil {
			if p := s.SchedStats().Peak; p > peak {
				peak = p
			}
		}
	}
	return peak
}

// ---------------------------------------------------------------------------
// Standing queries.

type standing struct{ w *client.Watch }

func (d *deployment) watch(ctx context.Context, src string) (*standing, error) {
	w, err := d.d.Watch(ctx, src, core.WatchOptions{})
	if err != nil {
		return nil, err
	}
	return &standing{w}, nil
}

func (s *standing) rows() rowSet { return digest(s.w.Results()) }
func (s *standing) close()       { s.w.Close() }
func (s *standing) waitEpoch(ctx context.Context, n int) error {
	return s.w.WaitEpoch(ctx, n)
}

// mutate applies the next step of the mutation schedule and returns how
// many epochs the standing query must advance; ok is false when the
// schedule has dried up.
func (d *deployment) mutate() (epochs int, ok bool) {
	muts, notified := d.d.Mutate(1)
	return notified, len(muts) == 1
}

// ---------------------------------------------------------------------------
// Stores.

// buildStores materializes the stores of the given sites of w under dir.
func buildStores(dir string, w *web, hosts []string) error {
	get := func(u string) ([]byte, error) {
		html, ok := w.w.HTML(u)
		if !ok {
			return nil, fmt.Errorf("no page at %s", u)
		}
		return html, nil
	}
	for _, host := range hosts {
		st, err := store.Build(dir, host, w.w.URLsAt(host), get, store.Options{})
		if err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (n int64, err error) {
	err = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// ---------------------------------------------------------------------------
// Traced execution: the harness's own spans around the client calls plus
// the clone spans the deployment's journals already hold.

// span is one interval of a traced operation, in the trace file's
// format. Times are microseconds on the journals' shared monotonic clock.
type span struct {
	Op       int     `json:"op"`    // operation index within the traced pass
	Query    string  `json:"query"` // shared identifier of the op's spans
	ID       string  `json:"id"`
	Parent   string  `json:"parent,omitempty"`
	Name     string  `json:"name"` // op | client.submit | client.wait | client.results | clone | watch.mutate | watch.maintain
	Site     string  `json:"site,omitempty"`
	Hop      int     `json:"hop,omitempty"`
	StartUS  float64 `json:"start_us"` // clone: when the sender shipped it
	ArriveUS float64 `json:"arrive_us,omitempty"`
	EndUS    float64 `json:"end_us"`
	Fate     string  `json:"fate,omitempty"`
}

func traceNowUS() float64 { return us(trace.Now()) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedQuery runs src with spans around Submit, Wait and Results, then
// appends the query's clone spans from the journals.
func (d *deployment) tracedQuery(op int, src string) ([]span, rowSet, error) {
	t0 := traceNowUS()
	q, err := d.d.SubmitDISQL(src)
	t1 := traceNowUS()
	if err != nil {
		return nil, rowSet{}, err
	}
	werr := q.Wait(opTimeout)
	t2 := traceNowUS()
	tables := q.Results()
	t3 := traceNowUS()
	if werr != nil {
		q.Cancel()
		return nil, rowSet{}, werr
	}
	id := q.ID().String()
	root := fmt.Sprintf("op%d", op)
	spans := []span{
		{Op: op, Query: id, ID: root, Name: "op", StartUS: t0, EndUS: t3},
		{Op: op, Query: id, ID: root + "/submit", Parent: root, Name: "client.submit", StartUS: t0, EndUS: t1},
		{Op: op, Query: id, ID: root + "/wait", Parent: root, Name: "client.wait", StartUS: t1, EndUS: t2},
		{Op: op, Query: id, ID: root + "/results", Parent: root, Name: "client.results", StartUS: t2, EndUS: t3},
	}
	spans = append(spans, d.flushCloneSpans(op, root+"/wait")...)
	return spans, digest(tables), queryFault(q)
}

// flushCloneSpans drains the journals and returns the clone spans of
// every query they recorded (a watch step's re-derivations run as
// queries of their own).
func (d *deployment) flushCloneSpans(op int, parent string) []span {
	return cloneSpans(op, parent, d.d.FlushTraces())
}

func cloneSpans(op int, parent string, events []trace.Event) []span {
	seen := map[string]bool{}
	var queries []string
	for _, e := range events {
		if e.Query != "" && !seen[e.Query] {
			seen[e.Query] = true
			queries = append(queries, e.Query)
		}
	}
	sort.Strings(queries)
	var out []span
	for _, qid := range queries {
		jy := trace.BuildJourney(qid, events)
		jy.Walk(func(n *trace.SpanNode, _ int) {
			if n.Sent < 0 || n.Arrived < 0 || n.Done < 0 {
				return
			}
			p := parent
			if !n.Parent.IsZero() {
				p = n.Parent.String()
			}
			out = append(out, span{
				Op: op, Query: qid, ID: n.Span.String(), Parent: p, Name: "clone",
				Site: n.Site, Hop: n.Hop,
				StartUS: us(n.Sent), ArriveUS: us(n.Arrived), EndUS: us(n.Done),
				Fate: n.Fate,
			})
		})
	}
	return out
}

// journalDropped sums the events the deployment's journals had to drop.
func (d *deployment) journalDropped() int64 {
	var n int64
	for _, site := range append([]string{"user", "(net)"}, d.sites...) {
		if j := d.d.Journal(site); j != nil {
			n += j.Dropped()
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Layer probes. Each constructor prepares inputs taken from the workload
// and returns a function that performs one batch of calls into the
// layer's public entry point, reporting how many units it processed and
// how long the calls themselves took.

type probeFn func() (units int, elapsed time.Duration, err error)

func timed(units int, f func() error) (int, time.Duration, error) {
	t0 := time.Now()
	err := f()
	return units, time.Since(t0), err
}

func probeDisqlParse(src string) probeFn {
	return func() (int, time.Duration, error) {
		return timed(1, func() error { _, err := disql.Parse(src); return err })
	}
}

// layerInputs holds what the per-document probes share: sample pages,
// their parsed forms and databases, and the parsed query.
type layerInputs struct {
	urls   []string
	html   [][]byte
	bytes  int64
	docs   []*htmlx.Document
	dbs    []*relmodel.DB
	query  *disql.WebQuery
	stages []wire.StageMsg
	envs   []map[string]string // per stage: the bindings a clone at that stage carries
}

// newLayerInputs samples up to maxDocs pages of w, evenly spaced.
func newLayerInputs(w *web, src string, maxDocs int) (*layerInputs, error) {
	q, err := disql.Parse(src)
	if err != nil {
		return nil, err
	}
	in := &layerInputs{query: q, stages: nodeproc.EncodeStages(q.Stages)}
	all := w.w.URLs()
	step := 1
	if len(all) > maxDocs {
		step = len(all) / maxDocs
	}
	for i := 0; i < len(all) && len(in.urls) < maxDocs; i += step {
		u := all[i]
		html, _ := w.w.HTML(u)
		doc, err := htmlx.Parse(u, html)
		if err != nil {
			return nil, err
		}
		in.urls = append(in.urls, u)
		in.html = append(in.html, html)
		in.bytes += int64(len(html))
		in.docs = append(in.docs, doc)
		in.dbs = append(in.dbs, relmodel.Build(doc))
	}
	var env map[string]string
	for i, st := range q.Stages {
		in.envs = append(in.envs, env)
		if i+1 < len(q.Stages) {
			env = nodeproc.ExtendEnv(env, st, in.dbs[0])
		}
	}
	return in, nil
}

func (in *layerInputs) probeParseStages() probeFn {
	return func() (int, time.Duration, error) {
		return timed(1, func() error { _, _, err := nodeproc.ParseStagesCached(in.stages); return err })
	}
}

func (in *layerInputs) probeHTMLParse() probeFn {
	return func() (int, time.Duration, error) {
		return timed(len(in.urls), func() error {
			for i, u := range in.urls {
				if _, err := htmlx.Parse(u, in.html[i]); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func (in *layerInputs) probeRelmodelBuild() probeFn {
	return func() (int, time.Duration, error) {
		return timed(len(in.docs), func() error {
			for _, doc := range in.docs {
				relmodel.Build(doc)
			}
			return nil
		})
	}
}

// evalAll runs every stage's node-query over every database of dbs and
// accumulates the pipeline's scan/emit statistics.
func (in *layerInputs) evalAll(dbs []*relmodel.DB, scanned, emitted *int64) error {
	for _, db := range dbs {
		for s, st := range in.query.Stages {
			_, stats, err := plan.Eval(st.Query, db, in.envs[s])
			if err != nil {
				return err
			}
			*scanned += stats.Scanned
			*emitted += stats.Emitted
		}
	}
	return nil
}

// probePlanEval evaluates over dbs (the in-RAM databases, or store-backed
// ones carrying the text oracle); one unit is one (document, stage)
// evaluation.
func (in *layerInputs) probePlanEval(dbs []*relmodel.DB, scanned, emitted *int64) probeFn {
	return func() (int, time.Duration, error) {
		return timed(len(dbs)*len(in.query.Stages), func() error { return in.evalAll(dbs, scanned, emitted) })
	}
}

func (in *layerInputs) probeStep() probeFn {
	st := in.query.Stages[0]
	hasNext := len(in.query.Stages) > 1
	return func() (int, time.Duration, error) {
		return timed(len(in.dbs), func() error {
			for i, db := range in.dbs {
				if _, err := nodeproc.Step(db, in.urls[i], st.PRE, st, hasNext, nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// probeLogTable checks fresh arrivals (the common verdict) into a log
// table that is replaced every batch so it never grows past one query
// stream's worth of entries.
func (in *layerInputs) probeLogTable() probeFn {
	rem := in.query.Stages[0].PRE
	num := 0
	return func() (int, time.Duration, error) {
		lt := nodeproc.NewLogTable(nodeproc.DedupSubsume)
		const queries = 32
		return timed(queries*len(in.urls), func() error {
			for k := 0; k < queries; k++ {
				num++
				id := wire.QueryID{User: "user", Site: "user/results", Num: num}
				for _, u := range in.urls {
					lt.Check(u, id, len(in.stages), rem, "")
				}
			}
			return nil
		})
	}
}

// wireMessages builds the two messages a traversal moves: the clone the
// user-site dispatches for the workload's query, and one site's report
// carrying rowsPerResult rows about its own pages.
func (in *layerInputs) wireMessages(rowsPerResult int) (*wire.CloneMsg, *wire.ResultMsg) {
	id := wire.QueryID{User: "user", Site: "user/results", Num: 1}
	q := in.query
	clone := &wire.CloneMsg{
		ID:     id,
		Dest:   []wire.DestNode{{URL: in.urls[0], Origin: "user/results", Seq: 1}},
		Rem:    q.Stages[0].PRE.String(),
		Stages: in.stages,
	}
	last := len(q.Stages) - 1
	cols := make([]string, len(q.Stages[last].Query.Select))
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	state := wire.State{NumQ: 1, Rem: q.Stages[last].PRE.String()}
	res := &wire.ResultMsg{ID: id, Site: "t0.example"}
	entry := func(i int) wire.CHTEntry {
		return wire.CHTEntry{Node: in.urls[i%len(in.urls)], State: state, Origin: "t0.example/query", Seq: int64(i)}
	}
	up := wire.CHTUpdate{Processed: entry(0)}
	for i := 1; i <= 3; i++ {
		up.Children = append(up.Children, entry(i))
	}
	res.Updates = []wire.CHTUpdate{up}
	if rowsPerResult > 0 {
		nt := wire.NodeTable{Node: in.urls[0], Stage: last, Cols: cols}
		for r := 0; r < rowsPerResult; r++ {
			row := make([]string, len(cols))
			for c := range row {
				row[c] = in.urls[(r+c)%len(in.urls)]
			}
			nt.Rows = append(nt.Rows, row)
		}
		res.Tables = []wire.NodeTable{nt}
	}
	return clone, res
}

// memDuplex is an in-memory connection pair driven from one goroutine:
// what one side writes the other reads, nothing blocks.
type memDuplex struct {
	rd, wr  *bytes.Buffer
	written *int64
}

func newMemDuplex() (a, b *memDuplex, aWritten *int64) {
	ab, ba := new(bytes.Buffer), new(bytes.Buffer)
	aWritten = new(int64)
	return &memDuplex{rd: ba, wr: ab, written: aWritten}, &memDuplex{rd: ab, wr: ba, written: new(int64)}, aWritten
}

func (c *memDuplex) Read(p []byte) (int, error) {
	if c.rd.Len() == 0 {
		return 0, io.EOF
	}
	return c.rd.Read(p)
}
func (c *memDuplex) Write(p []byte) (int, error) {
	*c.written += int64(len(p))
	return c.wr.Write(p)
}
func (c *memDuplex) Close() error                     { return nil }
func (c *memDuplex) LocalAddr() net.Addr              { return memAddr{} }
func (c *memDuplex) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memDuplex) SetDeadline(time.Time) error      { return nil }
func (c *memDuplex) SetReadDeadline(time.Time) error  { return nil }
func (c *memDuplex) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// probeWireRoundtrip sends msg and receives it back out of a persistent
// framed session, steady state (version negotiated, string tables warm).
// frameBytes is the size of one steady-state frame.
func probeWireRoundtrip(msg any) (fn probeFn, frameBytes float64, err error) {
	a, b, written := newMemDuplex()
	tx, rx := wire.NewFramed(a), wire.NewFramed(b)
	roundtrip := func() error {
		if err := wire.Send(tx, msg); err != nil {
			return err
		}
		_, err := wire.Receive(rx)
		return err
	}
	for i := 0; i < 3; i++ { // handshake, then warm tables
		if err := roundtrip(); err != nil {
			return nil, 0, err
		}
	}
	before := *written
	if err := roundtrip(); err != nil {
		return nil, 0, err
	}
	frameBytes = float64(*written - before)
	const batch = 64
	return func() (int, time.Duration, error) {
		return timed(batch, func() error {
			for i := 0; i < batch; i++ {
				if err := roundtrip(); err != nil {
					return err
				}
			}
			return nil
		})
	}, frameBytes, nil
}

// sendBench is a listener draining everything it is sent, a pool of
// connections to it, and the probes over them.
type sendBench struct {
	pool  *netsim.Pool
	ln    net.Listener
	recvd atomic.Int64
	to    string
	tr    netsim.Transport
}

func newSendBench(tcp bool) (*sendBench, error) {
	var tr netsim.Transport = netsim.New(netsim.Options{})
	if tcp {
		tr = netsim.NewTCP()
	}
	b := &sendBench{tr: tr, to: "probe.example/query"}
	ln, err := tr.Listen(b.to)
	if err != nil {
		return nil, err
	}
	b.ln = ln
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				n, _ := io.Copy(io.Discard, c)
				b.recvd.Add(n)
				c.Close()
			}()
		}
	}()
	b.pool = netsim.NewPool(tr, "probe.example/client", netsim.PoolOptions{})
	return b, nil
}

func (b *sendBench) close() {
	b.pool.Close()
	b.ln.Close()
}

// probeSend writes one 1 KiB frame per unit over a pooled connection.
func (b *sendBench) probeSend() probeFn {
	frame := make([]byte, 1024)
	const batch = 64
	return func() (int, time.Duration, error) {
		return timed(batch, func() error {
			for i := 0; i < batch; i++ {
				c, _, err := b.pool.Get(b.to)
				if err != nil {
					return err
				}
				if _, err := c.Write(frame); err != nil {
					c.Close()
					return err
				}
				b.pool.Put(b.to, c)
			}
			return nil
		})
	}
}

// probeDial opens and closes one fresh connection per unit.
func (b *sendBench) probeDial() probeFn {
	const batch = 16
	return func() (int, time.Duration, error) {
		return timed(batch, func() error {
			for i := 0; i < batch; i++ {
				c, err := b.tr.Dial("probe.example/dialer", b.to)
				if err != nil {
					return err
				}
				c.Close()
			}
			return nil
		})
	}
}

// probeSched pushes and pops one item per unit through the default FIFO
// clone queue.
func probeSched() probeFn {
	q := sched.New[int](sched.Options{})
	const batch = 256
	return func() (int, time.Duration, error) {
		return timed(batch, func() error {
			for i := 0; i < batch; i++ {
				q.Push("user@user/results#1", 1, false, i)
				q.Pop()
			}
			return nil
		})
	}
}

// storeBench owns a scratch store of the first few sites of a web,
// opened with the workload's small pool and its own counters.
type storeBench struct {
	dir       string
	w         *web
	hosts     []string
	urls      []string
	docBytes  int64
	diskBytes int64
	ctr       store.Counters
	stores    []*store.Store
	dbs       []*relmodel.DB
}

func newStoreBench(dir string, w *web, maxSites, poolPages int) (*storeBench, error) {
	hosts := w.w.Hosts()
	if len(hosts) > maxSites {
		hosts = hosts[:maxSites]
	}
	b := &storeBench{dir: dir, w: w, hosts: hosts, ctr: store.Counters{
		PagesRead: new(atomic.Int64), PagesEvicted: new(atomic.Int64), IndexHits: new(atomic.Int64),
	}}
	if err := buildStores(dir, w, hosts); err != nil {
		return nil, err
	}
	var err error
	if b.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	for _, h := range hosts {
		for _, u := range w.w.URLsAt(h) {
			html, _ := w.w.HTML(u)
			b.docBytes += int64(len(html))
			b.urls = append(b.urls, u)
		}
		st, err := store.Open(dir, h, store.Options{PoolPages: poolPages, Counters: b.ctr})
		if err != nil {
			b.close()
			return nil, err
		}
		b.stores = append(b.stores, st)
	}
	if b.dbs, err = b.loadAll(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *storeBench) close() {
	for _, st := range b.stores {
		st.Close()
	}
	os.RemoveAll(b.dir)
}

func (b *storeBench) loadAll() ([]*relmodel.DB, error) {
	var dbs []*relmodel.DB
	for i, h := range b.hosts {
		for _, u := range b.w.w.URLsAt(h) {
			db, err := b.stores[i].DB(u)
			if err != nil {
				return nil, err
			}
			dbs = append(dbs, db)
		}
	}
	return dbs, nil
}

// probeDB assembles every sampled document's database from heap pages.
func (b *storeBench) probeDB() probeFn {
	return func() (int, time.Duration, error) {
		return timed(len(b.urls), func() error { _, err := b.loadAll(); return err })
	}
}

func (b *storeBench) probeOpen() probeFn {
	return func() (int, time.Duration, error) {
		return timed(len(b.hosts), func() error {
			for _, h := range b.hosts {
				st, err := store.Open(b.dir, h, store.Options{})
				if err != nil {
					return err
				}
				st.Close()
			}
			return nil
		})
	}
}

// probeBuild rebuilds the sampled sites' stores in a sibling directory.
func (b *storeBench) probeBuild() probeFn {
	return func() (int, time.Duration, error) {
		dir := b.dir + ".rebuild"
		defer os.RemoveAll(dir)
		return timed(len(b.hosts), func() error { return buildStores(dir, b.w, b.hosts) })
	}
}

// probeMutate times steps of the default mutation mix on fresh copies of
// the workload's web (generation is outside the timed interval).
func probeMutate(fresh func() *web, seed int64) probeFn {
	const steps = 100
	return func() (int, time.Duration, error) {
		seed++
		m := webgraph.NewMutator(fresh().w, webgraph.MutationPlan{Seed: seed})
		return timed(steps, func() error {
			if got := len(m.Apply(steps)); got != steps {
				return fmt.Errorf("mutation schedule dried up after %d steps", got)
			}
			return nil
		})
	}
}
