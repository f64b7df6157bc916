// Package client implements the WEBDIS user-site: it dispatches a
// web-query to the query servers of its StartNodes, collects results on
// one listening endpoint per client (the paper's Result Collector socket,
// shared by every query and watch and routed by query id), and detects
// query completion with the Current Hosts Table protocol of Section 2.7.1.
//
// The CHT is maintained as a counting multiset of (node, state) entries:
// the client adds entries for the StartNodes before dispatching (Figure 2,
// send_query), every query server adds entries for the clones it forwards
// before it forwards them, and every server report — a processed node, a
// purged duplicate, or a failed forward — retires exactly one entry.
//
// Counts are signed: because result dispatch is asynchronous, a clone's
// own report can overtake its parent's update that announced it, driving
// the entry's count transiently negative. The query is complete exactly
// when every count is zero. This is sound: each clone contributes one +1
// (in its parent's update) and one −1 (in its own report), clone creation
// is a DAG in time, so no nonempty subset of outstanding reports sums to
// zero — the counts cannot all read zero while any clone remains live.
//
// Termination is the paper's Section 2.8 wherever a dispatch can still
// fail, and active where it cannot. A server forwards clones only after it
// delivered their results, and purges the query instead when the delivery
// fails, so no termination messages chase clones across the web. Close
// makes every delivery fail: the collector endpoint and its connections
// go. Cancel ends one query while the connections stay up for its
// neighbours. A site opening a session to the collector waits for its
// first report to be taken (wire.Settle, one round trip per site and
// client), and the collector refuses one that belongs to a query it no
// longer routes — so every site the traversal reaches for the first time
// still purges a cancelled query passively. A site that already holds a
// session reports without waiting; its reports cannot fail, and Cancel
// sends each such site one typed StopMsg (the message Budget.FirstN and
// Stop use along the live CHT entries), whose clones then retire with the
// typed STOPPED fate. Either way the query's remote work ends within one
// hop of the cancel, and its late reports are dropped by the router.
//
// Results are consumable while clones are still executing: every merged
// row is appended to an ordered stream log, and Rows (a pull iterator)
// or Stream (a bounded channel) deliver them incrementally with
// watermark-based backpressure accounting in Stats.
package client

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webdis/internal/cluster"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/nodequery"
	"webdis/internal/plan"
	"webdis/internal/server"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// ErrCancelled is returned by Wait after Cancel.
var ErrCancelled = errors.New("client: query cancelled")

// ErrTimeout is returned by Wait when the deadline passes first.
var ErrTimeout = errors.New("client: wait timed out")

// ErrShed reports that at least one site refused the query under
// admission control: the answer covers only the sites that accepted it.
var ErrShed = errors.New("client: query shed by admission control")

// ErrExpired reports that at least one clone was terminated for
// exceeding the query's wire-carried budget: the answer is clipped.
var ErrExpired = errors.New("client: query budget expired")

// ErrPartial reports that the query completed degraded: the reaper
// retired orphaned CHT entries, so part of the web went unanswered.
var ErrPartial = errors.New("client: query completed partial")

// Options configure a Client in one shot: the consolidated form of the
// deprecated Set* setters, threaded down from core.Config. The zero
// value is a plain user-site: no proxy, no reaper, no tracing.
type Options struct {
	// Proxy is the user-site's own query server, started by the caller
	// with no DocSource: the Section 7.1 migration path. Clones addressed
	// to sites without a query server — bounced back by servers or refused
	// at submission — are sent to it as plain clones; it evaluates them on
	// downloaded documents and forwards their continuations to the next
	// participating site. Nil retires such clones as failed forwards.
	Proxy *server.Server
	// ReapGrace arms the orphan-CHT reaper: when a query has seen no
	// report for the grace window while CHT entries remain outstanding,
	// the reaper retires the orphans, marks the query Partial with the
	// sites it could not account for, and completes it. Zero or negative
	// disables the reaper.
	ReapGrace time.Duration
	// Metrics shares a deployment-wide metrics collector so client-side
	// protocol events (reaped CHT entries, connection reuse) appear in
	// the same snapshot as the servers' counters. Optional.
	Metrics *server.Metrics
	// Journal arms causal tracing: root clones get span ids, every
	// dispatch/reap is journaled here, and span contexts echoed on result
	// reports are stitched into the query's remote view (Query.TraceEvents).
	Journal *trace.Journal
	// IndexResolver is the search-index lookup used to resolve
	// `index("term")` StartNode sources (the paper's Section 1.1 automated
	// StartNode selection). Queries with an index source fail without one.
	IndexResolver func(term string) []string
	// Cluster, when non-nil, routes every dispatch through the replica
	// membership table: root clones and stop broadcasts resolve a live
	// replica of the destination site (failing over to the next one when
	// the send fails), stale result frames from a replica's previous
	// incarnation are rejected, and the reaper replays clones stranded by
	// a crashed replica to a surviving one before giving up and reaping.
	Cluster *cluster.Membership
	// Planner arms the user-site half of the cost-based distributed
	// planner: root clones of aggregating (or limited) queries carry a
	// pushed-down plan fragment so sites reduce result tables before
	// shipping, and the site statistics piggybacked on result frames are
	// accumulated and re-attached to later clones as cost-model hints.
	// Aggregation itself (GROUP BY / ORDER BY / LIMIT semantics) does
	// not depend on this flag — only where the work runs does.
	Planner bool
	// Done, when non-nil, bounds the lifetime of every goroutine this
	// client's queries start: when the channel closes (the owning
	// deployment shut down), stream pumps and watch loops exit even if
	// their consumer abandoned the channel with a background context.
	// Nil means unbounded (the channel form of context.Background()).
	Done <-chan struct{}
}

// ErrClosed is returned by submissions after Client.Close.
var ErrClosed = errors.New("client: closed")

// Client is a WEBDIS user-site. Everything it submits — one-shot queries,
// session queries, watches and their re-derivations — reports to one
// Result Collector endpoint ("<base>/c"), opened on first use and routed
// by query number; Close releases it.
type Client struct {
	tr   netsim.Transport
	user string
	base string
	opts Options

	// stats accumulates per-site statistics across this client's queries
	// when Options.Planner is set; nil otherwise.
	stats *statStore

	mu       sync.Mutex
	next     int
	closed   bool
	endpoint string
	ln       net.Listener
	pool     *netsim.Pool
	unsub    func()            // detaches the down-replica pool eviction, if clustered
	conns    map[net.Conn]bool // accepted collector connections
	queries  map[int]*Query    // routing table: running queries
	watches  map[int]*Watch
	// reporters is every site that holds (or held) a session to the
	// collector: the sites whose reports cannot be made to fail, which a
	// cancelled query therefore stops actively. Bounded by the web's sites.
	reporters map[string]bool
}

// New returns a client for the given user dialing from endpoints under
// base (e.g. "user") with zero Options.
func New(tr netsim.Transport, user, base string) *Client {
	return NewWith(tr, user, base, Options{})
}

// NewWith returns a client configured by opts.
func NewWith(tr netsim.Transport, user, base string, opts Options) *Client {
	c := &Client{tr: tr, user: user, base: base, opts: opts}
	if opts.Planner {
		c.stats = newStatStore()
	}
	return c
}

// open binds the collector endpoint on first use: one listener, one
// accept loop and one connection pool for the client's lifetime. Remote
// sites dial the endpoint — the paper's "IP address and port number sent
// along with the web-query" — once, and keep the negotiated session for
// every later query of this client. Callers hold c.mu.
func (c *Client) open() error {
	if c.closed {
		return ErrClosed
	}
	if c.ln != nil {
		return nil
	}
	endpoint := c.base + "/c"
	ln, err := c.tr.Listen(endpoint)
	if err != nil {
		return fmt.Errorf("client: result collector: %w", err)
	}
	c.endpoint, c.ln = endpoint, ln
	c.pool = netsim.NewPool(c.tr, endpoint, netsim.PoolOptions{
		Wrap: func(conn net.Conn) net.Conn { return wire.NewFramed(conn) },
	})
	c.conns = make(map[net.Conn]bool)
	c.queries = make(map[int]*Query)
	c.watches = make(map[int]*Watch)
	c.reporters = make(map[string]bool)
	if cl := c.opts.Cluster; cl != nil {
		// Proactive hygiene: when the health layer declares a replica
		// down, its idle pooled connections are dead weight — evict them
		// so the next send dials a live replica instead of discovering
		// the corpse one stale connection at a time.
		pool := c.pool
		c.unsub = cl.Subscribe(func(ep string, st cluster.State) {
			if st == cluster.Down {
				pool.EvictPeer(ep)
			}
		})
	}
	go c.accept(ln)
	return nil
}

// attach mints the next query id and lets enter record its owner in the
// routing table.
func (c *Client) attach(enter func(id wire.QueryID)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.open(); err != nil {
		return err
	}
	c.next++
	enter(wire.QueryID{User: c.user, Site: c.endpoint, Num: c.next})
	return nil
}

// detach removes a query from the routing table; reports addressed to it
// are dropped from then on.
func (c *Client) detach(num int) {
	c.mu.Lock()
	delete(c.queries, num)
	c.mu.Unlock()
}

// accept runs the Result Collector: every frame is routed to its query or
// watch by id. The owner is resolved outside any per-query lock, so
// routing for one query never blocks on another's merge.
func (c *Client) accept(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Track accepted connections so Close can close them: servers pool
		// their collector connections between reports, and passive
		// termination (Section 2.8) requires the next report after Close to
		// FAIL at its sender. Closing only the listener would leave pooled
		// connections deliverable forever.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			continue
		}
		c.conns[conn] = true
		c.mu.Unlock()
		go c.serve(conn)
	}
}

// serve decodes one reporting site's persistent session. The session is
// kept only if its first report belongs to a query still routed: the site
// is waiting for that verdict before it forwards any clone (wire.Settle),
// and closing the connection instead is the failed dispatch of Section
// 2.8 — a site that never reported here purges a cancelled query the
// passive way. Once kept, the session is shared by every query, no report
// on it can fail, and its site is remembered for Query.Cancel to stop.
func (c *Client) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()
	framed := wire.NewFramed(conn)
	site := "" // the reporting site, once a report has named it
	for first := true; ; first = false {
		msg, err := wire.ReceiveUnacked(framed)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.ResultMsg:
			if q := c.query(m.ID.Num); q == nil || !q.merge(m) {
				if first {
					return
				}
			} else if site == "" {
				site = c.learn(reporter(m))
			}
		case *wire.BounceMsg:
			if q := c.query(m.Clone.ID.Num); q != nil {
				q.bounced(m.Clone)
			}
		case *wire.ShedMsg:
			if site == "" {
				site = c.learn(m.Site)
			}
			if q := c.query(m.Clone.ID.Num); q != nil {
				q.shedded(m)
			}
		case *wire.DeltaMsg:
			c.mu.Lock()
			w := c.watches[m.ID.Num]
			c.mu.Unlock()
			if w != nil && m.Applies() {
				w.notify(m)
			}
		}
	}
}

// reporter names the site a result frame came from. A report retires the
// entries of one clone, whose destinations all live at the reporting site
// — except on a ship-data edge, where the clone stayed behind and pulled
// the documents over; only a planner-armed site does that, and it signs
// its reports with its own statistics.
func reporter(m *wire.ResultMsg) string {
	switch {
	case len(m.Stats) > 0:
		return m.Stats[0].Site
	case len(m.Updates) > 0:
		return webgraph.Host(m.Updates[0].Processed.Node)
	}
	return ""
}

// reporting lists the sites that hold a session to the collector, sorted.
func (c *Client) reporting() []string {
	c.mu.Lock()
	sites := make([]string, 0, len(c.reporters))
	for site := range c.reporters {
		sites = append(sites, site)
	}
	c.mu.Unlock()
	sort.Strings(sites)
	return sites
}

// learn records site as holding a session to the collector and returns it.
func (c *Client) learn(site string) string {
	if site != "" {
		c.mu.Lock()
		if c.reporters != nil {
			c.reporters[site] = true
		}
		c.mu.Unlock()
	}
	return site
}

// query resolves a query number to its routed query, or nil.
func (c *Client) query(num int) *Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queries[num]
}

// Close shuts the user-site down: watches deregister, the collector
// endpoint, its accepted connections and the pool close, and every query
// still running is cancelled. From then on a site's report fails at its
// sender, which purges the query locally — the paper's passive
// termination, for everything this client had in flight. Idempotent; a
// client that never submitted anything has nothing to release.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns, queries, watches := c.conns, c.queries, c.watches
	c.conns, c.queries, c.watches = nil, nil, nil
	c.mu.Unlock()
	if c.ln == nil {
		return
	}
	// Watches first: their deregistration still needs the pool.
	for _, w := range watches {
		w.Close()
	}
	if c.unsub != nil {
		c.unsub()
	}
	c.ln.Close()
	for conn := range conns {
		conn.Close()
	}
	c.pool.Close()
	for _, q := range queries {
		q.abandon()
	}
}

// ResultTable is the merged result of one node-query across all answering
// nodes.
type ResultTable struct {
	Stage int
	Cols  []string
	Rows  [][]string
}

// StreamRow is one result row delivered incrementally: the node-query
// stage it answers and the row itself.
type StreamRow struct {
	Stage int
	Row   []string
}

// Stats describes one query's CHT protocol and streaming activity.
type Stats struct {
	ResultMsgs     int           // result/CHT messages received
	EntriesAdded   int           // CHT entries entered (StartNodes + children)
	EntriesRetired int           // entries retired by reports
	GhostReports   int           // reports for entries not live (late/purged)
	PeakLive       int           // maximum simultaneously live entries
	Reaped         int           // orphaned entries retired by the grace-window reaper
	Duration       time.Duration // submit to completion

	// Streaming watermarks. RowsStreamed counts rows pulled through Rows
	// or Stream by the furthest consumer; ConsumerLag is the gauge of
	// merged rows still buffered ahead of that consumer (equal to the
	// total row count when nothing consumes the stream); StreamHighWater
	// is the peak lag observed — how far the producers ran ahead.
	RowsStreamed    int
	ConsumerLag     int
	StreamHighWater int
	// StopsSent counts active-termination StopMsg broadcasts shipped to
	// sites with live CHT entries (Budget.FirstN or Stop/ctx cancel).
	StopsSent int
	// FirstRow is the submit-to-first-streamed-row latency (0 until a
	// first row arrives) — the headline number streaming improves.
	FirstRow time.Duration

	// Replication counters (all zero without Options.Cluster). Failovers
	// counts client-side sends re-resolved to another replica; Replays
	// counts stranded clones re-dispatched to a surviving replica by the
	// reaper; StaleRejected counts result frames dropped for carrying a
	// replica incarnation older than the sender's current registration;
	// DupRetired counts duplicate retirements of replayed entries absorbed
	// (the crashed replica's report arrived after all, on top of the
	// replay's).
	Failovers     int
	Replays       int
	StaleRejected int
	DupRetired    int
}

// Query is one in-flight or finished web-query at the user-site.
type Query struct {
	id  wire.QueryID
	web *disql.WebQuery
	// c owns the collector endpoint and the connection pool: reports are
	// routed to this query by its id for as long as it stays in c's table.
	c *Client

	doneCh chan struct{}
	// extDone mirrors Options.Done: a deployment-lifetime bound for the
	// query's pump goroutines. Nil blocks forever in a select — exactly
	// the unbounded default.
	extDone <-chan struct{}

	// rec, when non-nil, records the raw result flow — every reported
	// node table and every parent→child CHT edge — before deduplication.
	// The continuous-query layer replays this recording to maintain a
	// standing result set incrementally (see watch.go).
	rec *recording

	proxy     *server.Server
	reapGrace time.Duration
	met       *server.Metrics
	journal   *trace.Journal
	spanSeq   atomic.Int64

	// Replication (all nil/zero without Options.Cluster). cluster is the
	// shared membership table; entries mirrors the live CHT entries so the
	// reaper can reconstruct a stranded clone from its key alone;
	// replayable is set when the query carries no correlated-stage
	// environment (a replayed clone cannot recover one); replayed marks
	// the keys re-dispatched to a surviving replica, scoping the
	// duplicate-retire absorption.
	cluster      *cluster.Membership
	entries      map[string]wire.CHTEntry
	budget       wire.Budget
	replayable   bool
	replayed     map[string]bool
	replayVia    map[string]map[string]bool // site -> replicas used by replay rounds
	replayRounds int

	mu          sync.Mutex
	counts      map[string]int // signed CHT entry counts
	nonzero     int            // number of keys with a nonzero count
	tables      map[int]*ResultTable
	rowSeen     map[int]map[string]bool
	stitched    []trace.Event // span events recovered from result reports
	stats       Stats
	started     time.Time
	lastReport  time.Time // last CHT activity, watched by the reaper
	partial     bool      // completed by reaping, not by full accounting
	unreachable []string  // sites whose entries were reaped
	shed        bool      // a site refused the query under admission control
	expired     bool      // a clone was terminated by budget enforcement
	err         error
	done        bool

	// Streaming: every merged row is appended to the ordered log srows;
	// Rows and Stream deliver from it incrementally, waiting on scond
	// when they catch the producers. sread is the furthest consumer's
	// position, the watermark against which backpressure is accounted.
	srows []StreamRow
	sread int
	scond *sync.Cond // tied to mu; broadcast on append and finish

	// Active termination: firstN is the user-site row target
	// (Budget.FirstN); once satisfied — or Stop is called — stopping
	// flips and a typed StopMsg is broadcast to every site with live CHT
	// entries, stopSent deduplicating per site.
	firstN   int
	stopping bool
	stopSent map[string]bool

	// Aggregation state (all zero for classic queries). output is the
	// query's GROUP BY / ORDER BY / LIMIT contract; finalStage the stage
	// it applies to (always the last). For grouped queries, acc folds
	// contributions — raw rows or pushed-down partial state — keyed by
	// contribKey and deduplicated through contribSeen; finalized marks
	// the one-time materialization of the final table into the stream.
	// statSink, when non-nil, receives the site statistics piggybacked
	// on result frames (the client-wide statStore).
	output      *nodequery.OutputSpec
	finalStage  int
	acc         *plan.Acc
	contribSeen map[string]bool
	finalized   bool
	statSink    *statStore
}

// ID returns the query's global identifier.
func (q *Query) ID() wire.QueryID { return q.id }

// Submit translates, dispatches and begins collecting a web-query. It
// implements send_query of Figure 2: CHT entries for the StartNodes are
// entered first, then the query is dispatched to each StartNode's site
// (batched per site, Section 3.2 item 4).
func (c *Client) Submit(w *disql.WebQuery) (*Query, error) {
	return c.submit(w, wire.Budget{}, nil)
}

// SubmitBudget submits a web-query carrying a resource budget: the root
// clones ship with b, every spawned clone inherits and decrements it,
// and the sites enforce it locally (typed EXPIRED terminations that keep
// the CHT exact). b.Weight also sets the query's share under a site's
// weighted fair scheduler. b.FirstN arms active early termination at the
// user-site: once that many rows have been merged, a typed StopMsg is
// broadcast along the CHT's live entries.
func (c *Client) SubmitBudget(w *disql.WebQuery, b wire.Budget) (*Query, error) {
	return c.submit(w, b, nil)
}

// SubmitContext submits a web-query bound to ctx: when ctx ends before
// the query completes, the query is cancelled (StopMsg broadcast). The
// ctx does not bound Submit itself, which returns immediately after
// dispatch.
func (c *Client) SubmitContext(ctx context.Context, w *disql.WebQuery) (*Query, error) {
	return c.SubmitBudgetContext(ctx, w, wire.Budget{})
}

// SubmitBudgetContext is SubmitContext with a resource budget.
func (c *Client) SubmitBudgetContext(ctx context.Context, w *disql.WebQuery, b wire.Budget) (*Query, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := c.submit(w, b, nil)
	if err != nil {
		return nil, err
	}
	q.watch(ctx)
	return q, nil
}

// watch ties the query to ctx: if ctx ends first, the query is cancelled.
func (q *Query) watch(ctx context.Context) {
	if ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-q.doneCh:
		case <-ctx.Done():
			q.Cancel()
		}
	}()
}

// newQuery builds a query over w, enters it in the client's routing table
// under a fresh id and arms its reaper. Nothing is dispatched yet.
func (c *Client) newQuery(w *disql.WebQuery, b wire.Budget, rec *recording) (*Query, error) {
	now := time.Now()
	q := &Query{
		web:        w,
		c:          c,
		proxy:      c.opts.Proxy,
		reapGrace:  c.opts.ReapGrace,
		met:        c.opts.Metrics,
		journal:    c.opts.Journal,
		cluster:    c.opts.Cluster,
		budget:     b,
		doneCh:     make(chan struct{}),
		counts:     make(map[string]int),
		tables:     make(map[int]*ResultTable),
		rowSeen:    make(map[int]map[string]bool),
		started:    now,
		lastReport: now,
		firstN:     b.FirstN,
		stopSent:   make(map[string]bool),
		extDone:    c.opts.Done,
		rec:        rec,
		statSink:   c.stats,
	}
	q.scond = sync.NewCond(&q.mu)
	if w.Output != nil {
		q.output = w.Output
		q.finalStage = len(w.Stages) - 1
		if w.Output.Grouped() {
			q.acc = plan.NewAcc(w.Output)
			q.contribSeen = make(map[string]bool)
		}
	}
	if q.cluster != nil {
		q.entries = make(map[string]wire.CHTEntry)
		q.replayed = make(map[string]bool)
		// A clone reconstructed from its CHT entry cannot recover the
		// correlated-stage environment the original carried, so replay is
		// armed only for queries whose stages reference no outer columns.
		q.replayable = true
		for _, st := range w.Stages {
			if st.Query != nil && len(st.Query.Outer) > 0 {
				q.replayable = false
				break
			}
		}
	}
	err := c.attach(func(id wire.QueryID) {
		q.id = id
		c.queries[id.Num] = q
	})
	if err != nil {
		return nil, err
	}
	if q.reapGrace > 0 {
		go q.reaper()
	}
	return q, nil
}

func (c *Client) submit(w *disql.WebQuery, b wire.Budget, rec *recording) (*Query, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	start := w.Start
	if w.StartTerm != "" {
		if c.opts.IndexResolver == nil {
			return nil, fmt.Errorf("client: query uses index(%q) but no index resolver is installed", w.StartTerm)
		}
		start = c.opts.IndexResolver(w.StartTerm)
		if len(start) == 0 {
			return nil, fmt.Errorf("client: index(%q) matched no documents", w.StartTerm)
		}
	}
	if b.FirstN > 0 && (b.Rows == 0 || b.Rows > b.FirstN) {
		// First-N implies the row quota: servers clip what the user-site
		// would discard anyway, before it ever crosses the wire.
		b.Rows = b.FirstN
	}
	q, err := c.newQuery(w, b, rec)
	if err != nil {
		return nil, err
	}

	state := wire.State{NumQ: len(w.Stages), Rem: w.Stages[0].PRE.String()}
	roots := make([]wire.CHTEntry, len(start))
	for i, node := range start {
		roots[i] = wire.CHTEntry{Node: node, State: state}
		if rec != nil {
			// Client-root arrivals: parent "" marks the user-site itself.
			rec.edges = append(rec.edges, recEdge{parent: "", child: roots[i]})
		}
	}
	// With the planner armed, aggregating (or limited) queries push the
	// output spec to the sites as a plan fragment — every ServerRouter
	// then ships partial-aggregate state or per-node top-K instead of
	// raw rows.
	var frag *wire.PlanFrag
	if c.opts.Planner && w.Output != nil && (w.Output.Grouped() || w.Output.Limit > 0) {
		frag = &wire.PlanFrag{Version: wire.PlanFragVersion, Stage: len(w.Stages) - 1, Spec: *w.Output}
	}
	if sites, err := q.dispatchRoots(roots, frag); err != nil && sites == 1 {
		q.Cancel()
		return nil, err
	}
	return q, nil
}

// dispatchRoots enters the CHT entries of the given (node, state)
// arrivals and ships them as root clones, one message per site per state
// (Section 3.2 item 4). A fresh submission's roots all carry the full
// query; a watch re-derivation resumes mid-traversal, and its clones are
// the successively-shortened suffix stages, exactly as if the original
// traversal had just arrived there. It returns the number of clone
// messages and the first dispatch failure of a non-hybrid query (whose
// entries were retired, so completion detection is not wedged on clones
// that never existed).
func (q *Query) dispatchRoots(roots []wire.CHTEntry, frag *wire.PlanFrag) (int, error) {
	stages := q.web.Stages
	total := len(stages)

	type rootGroup struct {
		state wire.State
		dests []wire.DestNode
	}
	groups := make(map[string]*rootGroup)
	var keys []string
	rootSeen := make(map[string]bool)
	var seq int64
	q.mu.Lock()
	for _, r := range roots {
		if r.State.NumQ < 1 || r.State.NumQ > total {
			continue
		}
		rk := r.Node + "\x01" + r.State.Key()
		if rootSeen[rk] {
			continue
		}
		rootSeen[rk] = true
		gk := webgraph.Host(r.Node) + "\x01" + r.State.Key()
		g := groups[gk]
		if g == nil {
			g = &rootGroup{state: r.State}
			groups[gk] = g
			keys = append(keys, gk)
		}
		seq++
		dest := wire.DestNode{URL: r.Node, Origin: q.id.Site, Seq: seq}
		g.dests = append(g.dests, dest)
		q.addEntry(wire.CHTEntry{Node: r.Node, State: r.State, Origin: dest.Origin, Seq: dest.Seq})
	}
	q.mu.Unlock()
	sort.Strings(keys)

	// Clones carry the site statistics gathered so far as cost-model hints.
	var hints []wire.SiteStat
	if q.c.opts.Planner {
		hints = q.c.stats.hints()
	}

	var firstErr error
	for _, gk := range keys {
		g := groups[gk]
		base := total - g.state.NumQ
		msg := &wire.CloneMsg{
			ID:     q.id,
			Dest:   g.dests,
			Rem:    g.state.Rem,
			Base:   base,
			Stages: nodeproc.EncodeStages(stages[base:]),
			Budget: q.budget,
			Frag:   frag,
			Hints:  hints,
		}
		site := webgraph.Host(g.dests[0].URL)
		if q.journal != nil {
			// Root spans: one per clone message, parented by nothing.
			msg.Span = wire.SpanID{Origin: q.id.Site, Seq: q.spanSeq.Add(1)}
			q.jot(msg, trace.Dispatch, site)
		}
		err := q.sendSite(site, msg)
		if err == nil {
			continue
		}
		if q.proxy != nil {
			// The site does not participate: the proxy processes its clone
			// (Section 7.1).
			q.jot(msg, trace.Bounce, wire.BounceNoServer)
			q.bounced(msg)
			continue
		}
		q.jot(msg, trace.ForwardFailed, site)
		if firstErr == nil {
			firstErr = err
		}
		q.mu.Lock()
		for _, dest := range g.dests {
			q.retire(wire.CHTEntry{Node: dest.URL, State: g.state, Origin: dest.Origin, Seq: dest.Seq})
		}
		q.mu.Unlock()
	}
	// An empty root set (or every dispatch failing) must still complete.
	q.mu.Lock()
	q.maybeComplete()
	q.mu.Unlock()
	return len(keys), firstErr
}

// bounced handles a clone that could not reach its site — returned by a
// server, or refused at submission: it goes to the proxy as a plain
// clone. Without a proxy, or when even the proxy cannot take it, its
// entries retire, so the bounce degrades to a recorded forward failure
// instead of a stranded CHT.
func (q *Query) bounced(c *wire.CloneMsg) {
	q.mu.Lock()
	if q.done {
		q.mu.Unlock()
		return
	}
	q.lastReport = time.Now()
	q.mu.Unlock()
	if q.proxy != nil && q.c.send(q.proxy.Self(), c) == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, u := range c.Retirements() {
		q.retire(u.Processed)
	}
	q.maybeComplete()
}

// shedded handles a typed SHED refusal: a site over its high watermark
// declined to start this query. The clone's entries retire (it will
// never be processed) and the query surfaces the refusal via Shed —
// distinct from the fault-path bounce, which still owes processing.
func (q *Query) shedded(m *wire.ShedMsg) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done {
		return
	}
	q.lastReport = time.Now()
	q.shed = true
	q.jot(m.Clone, trace.Shed, m.Site)
	for _, u := range m.Clone.Retirements() {
		q.retire(u.Processed)
	}
	q.maybeComplete()
}

// Shed reports whether any site refused the query under admission
// control (load shedding). A shed query still completes — with answers
// only from the sites that accepted it; resubmit later for the rest.
func (q *Query) Shed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shed
}

// send delivers one message to the named endpoint over the client's
// connection pool. A send that fails on a reused connection — unless the
// fabric's fault injection ate the frame — is redone once over a fresh
// dial, so a stale pooled connection never masquerades as a down site.
func (c *Client) send(to string, msg any) error {
	met := c.opts.Metrics
	conn, reused, err := c.pool.Get(to)
	if err != nil {
		return err
	}
	if met != nil {
		if reused {
			met.ConnReused.Add(1)
		} else {
			met.ConnDialed.Add(1)
		}
	}
	err = wire.Send(conn, msg)
	if err == nil {
		c.pool.Put(to, conn)
		return nil
	}
	conn.Close()
	if !reused || errors.Is(err, netsim.ErrDropped) || errors.Is(err, netsim.ErrSevered) {
		return err
	}
	if met != nil {
		met.ConnStale.Add(1)
	}
	conn, err = c.pool.Dial(to)
	if err != nil {
		return err
	}
	if met != nil {
		met.ConnDialed.Add(1)
	}
	if err := wire.Send(conn, msg); err != nil {
		conn.Close()
		return err
	}
	c.pool.Put(to, conn)
	return nil
}

// merge implements receive_results of Figure 2 under the counting-CHT
// refinement: retire the processed entry, enter the children, and check
// for completion. One ResultMsg carries the report of one processed
// clone (Figure 3, lines 17–20). After the lock drops, any pending
// active-termination broadcast (Budget.FirstN newly satisfied, or new
// sites appearing while stopping) is shipped. It reports whether the query was still running to take it.
func (q *Query) merge(rm *wire.ResultMsg) bool {
	q.mu.Lock()
	if q.done {
		q.mu.Unlock()
		return false
	}
	if q.cluster != nil && rm.From != "" && rm.Inc > 0 && q.cluster.Incarnation(rm.From) > rm.Inc {
		// The frame was sent before its replica crashed and re-registered:
		// the entries it would retire have been (or will be) replayed, so
		// merging it would double-retire them. Drop the whole frame; the
		// replay's own reports carry the authoritative accounting.
		q.stats.StaleRejected++
		if q.met != nil {
			q.met.StaleRejected.Add(1)
		}
		q.mu.Unlock()
		return true
	}
	q.stats.ResultMsgs++
	q.lastReport = time.Now()
	if !rm.Span.IsZero() {
		q.stitch(rm)
	}
	if q.statSink != nil {
		q.statSink.learn(rm.Stats)
	}
	if rm.Expired {
		q.expired = true
	}
	for _, t := range rm.Tables {
		q.mergeTable(t)
	}
	if q.rec != nil {
		q.rec.fold(rm)
	}
	for _, u := range rm.Updates {
		q.retire(u.Processed)
		for _, child := range u.Children {
			q.addEntry(child)
		}
	}
	q.maybeComplete()
	stops := q.stopTargets()
	q.mu.Unlock()
	q.broadcastStop(stops, "first-n satisfied")
	return true
}

// jot appends one causal event for clone c to the query's journal.
func (q *Query) jot(c *wire.CloneMsg, kind trace.Kind, detail string) {
	q.journal.AppendClone(c, kind, "", c.State(), detail)
}

// stitch records the span context echoed on one result frame: the
// processing site, the processed clone's span, and links to the clones it
// spawned. This is the user-site's remote view of the clone tree — enough
// to reconstruct the journey over a real network, where the remote sites'
// journals cannot be read. Callers hold q.mu.
func (q *Query) stitch(r *wire.ResultMsg) {
	at := trace.Now()
	// A typed retirement books the span's fate as EXPIRED or STOPPED, not
	// processed, so budget and active terminations reconcile exactly in
	// the stitched journey.
	kind := trace.Result
	switch {
	case r.Stopped:
		kind = trace.Stop
	case r.Expired:
		kind = trace.Expire
	}
	q.stitched = append(q.stitched, trace.Event{
		At: at, Site: r.Site, Query: r.ID.String(), Span: r.Span,
		Kind: kind, Hop: r.Hop,
		Detail: strconv.Itoa(len(r.Updates)) + " updates, " + strconv.Itoa(len(r.Tables)) + " tables",
	})
	for _, link := range r.Spawned {
		q.stitched = append(q.stitched, trace.Event{
			At: at, Site: r.Site, Query: r.ID.String(), Span: link.Span,
			Parent: r.Span, Kind: trace.Forward, Hop: r.Hop + 1, Detail: link.Site,
		})
	}
}

// TraceEvents returns the query's causal trace as seen from the
// user-site: the client journal's own events (dispatches, bounces, reaps)
// plus the span events stitched from result reports.
// Over a real network this is the complete reconstructable view; pass it
// to trace.BuildJourney. In-process deployments should prefer the
// deployment collector, which merges the per-site journals directly.
func (q *Query) TraceEvents() []trace.Event {
	out := append([]trace.Event(nil), q.journal.Events()...)
	q.mu.Lock()
	out = append(out, q.stitched...)
	q.mu.Unlock()
	return out
}

// addEntry and retire maintain the signed counting multiset. Callers hold
// q.mu.
func (q *Query) addEntry(e wire.CHTEntry) {
	key := e.Key()
	if q.entries != nil {
		// Mirror the entry itself (not just its count) so the reaper can
		// reconstruct a stranded clone from the key alone; bump deletes the
		// mirror when the count returns to zero.
		q.entries[key] = e
	}
	q.bump(key, +1)
	q.stats.EntriesAdded++
	if q.nonzero > q.stats.PeakLive {
		q.stats.PeakLive = q.nonzero
	}
}

func (q *Query) retire(e wire.CHTEntry) {
	key := e.Key()
	if q.replayed != nil && q.replayed[key] && q.counts[key] <= 0 {
		// A second retirement of a replayed instance: both the replay and
		// the original (its report surviving the crash after all, or two
		// replicas each processing one copy) accounted the entry. The first
		// retirement balanced it; absorbing the duplicate keeps the
		// counting multiset exact. Scoped to replayed keys — for everything
		// else a negative count is the legal report-overtakes-announce
		// asynchrony and must stand.
		q.stats.DupRetired++
		if q.met != nil {
			q.met.DupRetired.Add(1)
		}
		return
	}
	if q.counts[key] <= 0 {
		// The report overtook the update announcing the entry.
		q.stats.GhostReports++
	}
	q.bump(key, -1)
	q.stats.EntriesRetired++
}

func (q *Query) bump(key string, delta int) {
	old := q.counts[key]
	now := old + delta
	if now == 0 {
		delete(q.counts, key)
		if q.entries != nil {
			delete(q.entries, key)
		}
		if old != 0 {
			q.nonzero--
		}
	} else {
		q.counts[key] = now
		if old == 0 {
			q.nonzero++
		}
	}
}

func (q *Query) mergeTable(t wire.NodeTable) {
	if q.acc != nil && t.Stage == q.finalStage {
		// Grouped query: final-stage rows are aggregate input, not
		// output. Fold the contribution once — its rows are partial
		// state when a pushed-down fragment already reduced them at the
		// site, raw projected rows otherwise — and emit nothing to the
		// stream; the final table materializes at completion.
		key := contribKey(&t)
		if q.contribSeen[key] {
			return
		}
		q.contribSeen[key] = true
		if t.Partial {
			q.acc.AddPartial(t.Rows)
		} else {
			q.acc.AddRaw(t.Cols, t.Rows, wire.ParseEnvKey(t.Env))
		}
		return
	}
	rt := q.tables[t.Stage]
	if rt == nil {
		rt = &ResultTable{Stage: t.Stage, Cols: t.Cols}
		q.tables[t.Stage] = rt
		q.rowSeen[t.Stage] = make(map[string]bool)
	}
	seen := q.rowSeen[t.Stage]
	fresh := false
	for _, row := range t.Rows {
		key := rowKey(row)
		if seen[key] {
			continue
		}
		seen[key] = true
		rt.Rows = append(rt.Rows, row)
		if len(q.srows) == 0 && q.stats.FirstRow == 0 {
			q.stats.FirstRow = time.Since(q.started)
		}
		q.srows = append(q.srows, StreamRow{Stage: t.Stage, Row: row})
		fresh = true
	}
	if fresh {
		if lag := len(q.srows) - q.sread; lag > q.stats.StreamHighWater {
			q.stats.StreamHighWater = lag
		}
		q.scond.Broadcast()
	}
}

// stopTargets flips the query into stopping mode once Budget.FirstN is
// satisfied (or Stop already flipped it) and returns the sites with live
// CHT entries that have not been told yet. Callers hold q.mu; the actual
// sends happen outside the lock via broadcastStop.
func (q *Query) stopTargets() []string {
	if !q.stopping && q.firstN > 0 && len(q.srows) >= q.firstN {
		q.stopping = true
	}
	if !q.stopping || q.done {
		return nil
	}
	var sites []string
	for key := range q.counts {
		// Key layout is "node§state§origin§seq" (wire.CHTEntry.Key); the
		// node's host is the site holding — or about to receive — the
		// clone.
		i := strings.Index(key, "§")
		if i <= 0 {
			continue
		}
		site := webgraph.Host(key[:i])
		if q.stopSent[site] {
			continue
		}
		q.stopSent[site] = true
		sites = append(sites, site)
	}
	if q.proxy != nil && !q.stopSent[q.proxy.Site()] {
		// The proxy may hold a clone of any site without a query server.
		q.stopSent[q.proxy.Site()] = true
		sites = append(sites, q.proxy.Site())
	}
	sort.Strings(sites)
	return sites
}

// broadcastStop ships the typed StopMsg to each site's query server:
// active early termination, the measured counterpart of the paper's
// §2.8 passive starvation. Best-effort — an unreachable site's clones
// still retire through forward failures or the reaper. Callers must NOT
// hold q.mu.
func (q *Query) broadcastStop(sites []string, reason string) {
	if len(sites) == 0 {
		return
	}
	sent := 0
	for _, site := range sites {
		// Replicated sites get the stop on every replica endpoint: any of
		// them may hold the clone, and a StopMsg to an idle replica is a
		// cheap no-op. The site counts as told when any endpoint took it.
		eps := []string{server.Endpoint(site)}
		if q.cluster != nil {
			if all := q.cluster.Endpoints(site); len(all) > 0 {
				eps = all
			}
		}
		ok := false
		for _, ep := range eps {
			if q.c.send(ep, &wire.StopMsg{ID: q.id, Reason: reason}) == nil {
				ok = true
			}
		}
		if ok {
			sent++
		}
	}
	q.mu.Lock()
	q.stats.StopsSent += sent
	q.mu.Unlock()
	if q.journal != nil {
		q.journal.Append(trace.Event{
			Query: q.id.String(), Kind: trace.Stop,
			Detail: reason + " -> " + strings.Join(sites, ","),
		})
	}
}

// Stop actively terminates the query's in-flight work: a typed StopMsg
// is broadcast to every site with live CHT entries (and, as entries for
// new sites keep arriving, to those too). The query itself keeps
// collecting — the stopped clones retire through the CHT with the typed
// STOPPED fate, so completion happens through the normal accounting,
// sooner, with the answers gathered so far. Combine with Cancel to also
// abandon collection.
func (q *Query) Stop(reason string) {
	q.mu.Lock()
	if q.done {
		q.mu.Unlock()
		return
	}
	q.stopping = true
	stops := q.stopTargets()
	q.mu.Unlock()
	q.broadcastStop(stops, reason)
}

// Stopped reports whether active termination was triggered (by
// Budget.FirstN, Stop, or a cancelled submit context).
func (q *Query) Stopped() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stopping
}

// rowKey identifies a row for deduplication: every cell followed by a
// NUL, built in one sized buffer, one allocation.
func rowKey(row []string) string {
	n := len(row)
	for _, v := range row {
		n += len(v)
	}
	var b strings.Builder
	b.Grow(n)
	for _, v := range row {
		b.WriteString(v)
		b.WriteByte(0)
	}
	return b.String()
}

// reaper watches the query for orphaned CHT entries: when no report has
// arrived for the grace window while counts remain outstanding, the
// stranded entries belong to clones that will never report — a crashed
// site that accepted them, a severed report, a partition. The reaper
// retires them, marks the query Partial with the unaccounted-for sites,
// and completes it. Nothing is sent: the query leaves the routing table
// as on normal completion, and a straggler report is dropped there.
func (q *Query) reaper() {
	t := time.NewTimer(q.reapGrace)
	defer t.Stop()
	for {
		select {
		case <-q.doneCh:
			return
		case <-t.C:
		}
		q.mu.Lock()
		if q.done {
			q.mu.Unlock()
			return
		}
		if idle := time.Since(q.lastReport); idle < q.reapGrace {
			q.mu.Unlock()
			t.Reset(q.reapGrace - idle)
			continue
		}
		if q.nonzero == 0 || (q.proxy != nil && q.proxy.Queued(q.id) > 0) {
			// Balanced but unfinished (shouldn't happen), or the proxy
			// still has clones queued that will produce reports.
			q.mu.Unlock()
			t.Reset(q.reapGrace)
			continue
		}
		// Before writing the orphans off, try to resume them: a replicated
		// deployment can replay the stranded clones against a surviving
		// replica (mid-traversal failover driven from the user-site). Only
		// when replay is not possible — or has been tried and the entries
		// stayed orphaned — does the reaper give up coverage.
		clones := q.orphanClones()
		if len(clones) == 0 {
			q.reap()
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		if q.replay(clones) > 0 {
			q.mu.Lock()
			q.lastReport = time.Now()
			q.mu.Unlock()
		}
		t.Reset(q.reapGrace)
	}
}

// reap retires every outstanding CHT entry, records the sites they point
// at, and finishes the query as Partial. Callers hold q.mu.
func (q *Query) reap() {
	sites := make(map[string]bool)
	reaped := 0
	for key, cnt := range q.counts {
		if cnt > 0 {
			// Key layout is "node§state§origin§seq" (wire.CHTEntry.Key);
			// the node's host is the site that never reported.
			if i := strings.Index(key, "§"); i > 0 {
				sites[webgraph.Host(key[:i])] = true
			}
		}
		reaped++
	}
	q.counts = make(map[string]int)
	q.nonzero = 0
	q.stats.Reaped += reaped
	q.partial = true
	q.unreachable = q.unreachable[:0]
	for s := range sites {
		q.unreachable = append(q.unreachable, s)
	}
	sort.Strings(q.unreachable)
	if q.met != nil {
		q.met.CHTReaped.Add(int64(reaped))
	}
	q.journal.Append(trace.Event{
		Query: q.id.String(), Kind: trace.Reap,
		Detail: strconv.Itoa(reaped) + " entries, sites: " + strings.Join(q.unreachable, ","),
	})
	q.finish(nil)
}

// Partial reports whether the query completed degraded: the reaper
// retired orphaned CHT entries, so the answer covers only the reachable
// part of the web.
func (q *Query) Partial() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.partial
}

// Unreachable returns the sites whose CHT entries had to be reaped —
// the part of the web the answer does not cover. Empty unless Partial.
func (q *Query) Unreachable() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, len(q.unreachable))
	copy(out, q.unreachable)
	return out
}

// maybeComplete finishes the query when every CHT count is zero. Callers
// hold q.mu.
func (q *Query) maybeComplete() {
	if q.nonzero != 0 || q.done {
		return
	}
	q.finish(nil)
}

// finish marks the query done: its rows are final, its waiters wake, and
// it leaves the client's routing table. The shared endpoint and pool stay
// open for the client's other queries; a report still addressed to this
// one is dropped by the router — or, when it opens a fresh session, fails
// at its sender. Callers hold q.mu.
func (q *Query) finish(err error) {
	if q.done {
		return
	}
	q.done = true
	q.err = err
	q.stats.Duration = time.Since(q.started)
	if q.acc != nil && !q.finalized {
		// Materialize the grouped final table into the stream so Rows and
		// Stream deliver it: aggregates cannot stream incrementally — a
		// group's value is only final when every contribution is in.
		q.finalized = true
		_, rows := q.acc.FinalTable()
		for _, row := range rows {
			q.srows = append(q.srows, StreamRow{Stage: q.finalStage, Row: row})
		}
	}
	close(q.doneCh)
	q.scond.Broadcast() // wake stream consumers: no more rows are coming
	q.c.detach(q.id.Num)
}

// cancelReason is the StopMsg reason of a cancelled query.
const cancelReason = "cancelled"

// Cancel abandons the query: Wait returns ErrCancelled at once with the
// rows gathered so far, and the query's remote work is cut off within one
// hop. The collector's connections carry the client's other queries, so
// none is closed; instead every site holding a session to the collector
// is sent a typed StopMsg (its reports cannot fail, so it is told), and a
// site holding none — one the traversal reaches for the first time — has
// its first report refused (see serve) and purges the query as after a
// failed dispatch. Late reports of the query are dropped by the router.
func (q *Query) Cancel() {
	q.mu.Lock()
	if q.done {
		q.mu.Unlock()
		return
	}
	inFlight := q.nonzero != 0
	q.stopping = true
	q.finish(ErrCancelled)
	q.mu.Unlock()
	if inFlight {
		sites := q.c.reporting()
		if q.proxy != nil && !slices.Contains(sites, q.proxy.Site()) {
			sites = append(sites, q.proxy.Site())
		}
		q.broadcastStop(sites, cancelReason)
	}
}

// abandon finishes a query whose client is closing: nothing is sent, the
// endpoint is going away under it.
func (q *Query) abandon() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.finish(ErrCancelled)
}

// WaitContext blocks until the query completes or ctx ends. A passed
// deadline returns ErrTimeout and leaves the query running (the old
// Wait(timeout) contract); an explicit cancellation cancels the query
// (StopMsg broadcast) and returns ErrCancelled. A query that has finished
// by the time ctx ends returns its own outcome either way, the one Err
// reports.
func (q *Query) WaitContext(ctx context.Context) error {
	select {
	case <-q.doneCh:
	case <-ctx.Done():
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			q.Cancel() // a no-op on a query that has finished
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.done {
		return ErrTimeout
	}
	return q.err
}

// Wait blocks until the query completes, is cancelled, or the timeout
// elapses (timeout <= 0 waits forever). It returns nil on normal
// completion. It is the timeout form of WaitContext.
func (q *Query) Wait(timeout time.Duration) error {
	if timeout <= 0 {
		return q.WaitContext(context.Background())
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return q.WaitContext(ctx)
}

// Done reports whether the query has finished.
func (q *Query) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.done
}

// LiveEntries returns the number of CHT entries with a nonzero count.
func (q *Query) LiveEntries() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.nonzero
}

// Progress estimates how much of the query has executed, as the fraction
// of CHT entries already retired (0 when nothing has reported, 1 at
// completion). Because results stream to the user-site as they are found
// (Section 2.6), Results called before completion returns the answers
// gathered so far — together with Progress this gives anytime,
// approximate answers: cancel at a deadline and keep the partial result.
func (q *Query) Progress() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done {
		return 1
	}
	if q.stats.EntriesAdded == 0 {
		return 0
	}
	return float64(q.stats.EntriesRetired) / float64(q.stats.EntriesAdded)
}

// RowCount returns the number of result rows gathered so far, across all
// stages.
func (q *Query) RowCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, t := range q.tables {
		n += len(t.Rows)
	}
	return n
}

// Stats returns a copy of the query's protocol statistics. The
// streaming gauges are computed at call time: RowsStreamed is the
// furthest consumer's position, ConsumerLag the rows merged ahead of it.
func (q *Query) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.stats
	st.RowsStreamed = q.sread
	st.ConsumerLag = len(q.srows) - q.sread
	return st
}

// Expired reports whether any clone was terminated for exceeding the
// query's budget: the answer is clipped, not exhaustive.
func (q *Query) Expired() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expired
}

// Err types how a finished query degraded, matchable with errors.Is: nil
// for a clean, complete answer; ErrCancelled/ErrTimeout when the query
// was abandoned; otherwise any applicable combination of ErrShed
// (admission control refused sites), ErrPartial (orphaned entries
// reaped) and ErrExpired (budget clipped clones), joined. A non-nil Err
// does not mean Results is empty — it means the answer's coverage is
// qualified.
func (q *Query) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	var errs []error
	if q.shed {
		errs = append(errs, ErrShed)
	}
	if q.partial {
		errs = append(errs, ErrPartial)
	}
	if q.expired {
		errs = append(errs, ErrExpired)
	}
	return errors.Join(errs...)
}

// Rows returns the query's result rows as an incremental pull iterator
// yielding (stage, row) in merge order: rows already gathered come
// immediately, then the iterator blocks for new rows until the query
// finishes. Every call iterates the full sequence from the first row, so
// ranging after completion replays exactly the rows Results holds
// (unsorted, deduplicated). Breaking out of the range is safe and leaks
// nothing — the iterator is pull-based, with no goroutine behind it.
func (q *Query) Rows() iter.Seq2[int, []string] {
	return func(yield func(int, []string) bool) {
		i := 0
		q.mu.Lock()
		for {
			for i < len(q.srows) {
				r := q.srows[i]
				i++
				if i > q.sread {
					q.sread = i
				}
				q.mu.Unlock()
				ok := yield(r.Stage, r.Row)
				q.mu.Lock()
				if !ok {
					q.mu.Unlock()
					return
				}
			}
			if q.done {
				q.mu.Unlock()
				return
			}
			q.scond.Wait()
		}
	}
}

// Stream returns a bounded channel of the query's rows in merge order,
// from the first row. The channel closes when the query finishes (after
// delivering every row) or when ctx ends — the abandon-safe form of
// Rows for select loops. A slow consumer never blocks merge: rows spill
// into the query's ordered log and the lag is accounted in Stats.
//
// The pump is additionally bounded by the client's Options.Done channel:
// a consumer that abandons the channel with a background context would
// otherwise pin the pump forever on a finished query's undelivered rows,
// outliving the deployment that owns the transport.
func (q *Query) Stream(ctx context.Context) <-chan StreamRow {
	ch := make(chan StreamRow, 64)
	stop := make(chan struct{})
	go func() {
		// Waker: a cond-waiting pump cannot select on ctx, so turn the
		// ctx's (or the deployment's) end into a broadcast.
		select {
		case <-ctx.Done():
		case <-q.extDone:
		case <-stop:
			return
		}
		q.mu.Lock()
		q.scond.Broadcast()
		q.mu.Unlock()
	}()
	go func() {
		defer close(ch)
		defer close(stop)
		i := 0
		for {
			q.mu.Lock()
			for i >= len(q.srows) && !q.done && ctx.Err() == nil && !q.extClosed() {
				q.scond.Wait()
			}
			if ctx.Err() != nil || q.extClosed() || i >= len(q.srows) {
				q.mu.Unlock()
				return
			}
			r := q.srows[i]
			i++
			if i > q.sread {
				q.sread = i
			}
			q.mu.Unlock()
			select {
			case ch <- r:
			case <-ctx.Done():
				return
			case <-q.extDone:
				return
			}
		}
	}()
	return ch
}

// extClosed reports whether the client-wide Options.Done channel has
// closed (nil never closes).
func (q *Query) extClosed() bool {
	select {
	case <-q.extDone:
		return true
	default:
		return false
	}
}

// Results returns the merged result tables ordered by stage, with rows
// sorted for deterministic presentation. For a query with an output
// contract, the final stage honors it: grouped queries return the
// aggregate table (computed from the contributions folded so far — the
// anytime property extends to aggregates), and ORDER BY / LIMIT queries
// return the final stage ordered by its keys and truncated.
func (q *Query) Results() []ResultTable {
	q.mu.Lock()
	defer q.mu.Unlock()
	stages := make([]int, 0, len(q.tables))
	for s := range q.tables {
		stages = append(stages, s)
	}
	sort.Ints(stages)
	out := make([]ResultTable, 0, len(stages)+1)
	for _, s := range stages {
		if q.acc != nil && s == q.finalStage {
			continue // replaced by the aggregate table below
		}
		t := q.tables[s]
		rows := make([][]string, len(t.Rows))
		copy(rows, t.Rows)
		if q.output != nil && q.acc == nil && s == q.finalStage {
			rows = plan.SortLimit(rows, t.Cols, q.output)
		} else {
			sortRows(rows)
		}
		out = append(out, ResultTable{Stage: t.Stage, Cols: t.Cols, Rows: rows})
	}
	if q.acc != nil {
		cols, rows := q.acc.FinalTable()
		out = append(out, ResultTable{Stage: q.finalStage, Cols: cols, Rows: rows})
	}
	return out
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
