// Package client implements the WEBDIS user-site: it dispatches a
// web-query to the query servers of its StartNodes, collects results on
// one listening endpoint per client (the paper's Result Collector socket,
// shared by every query and watch and routed by query id), and detects
// query completion with the Current Hosts Table protocol of Section 2.7.1.
//
// The CHT (cht.go) is a counting multiset of clone instances, keyed by the
// wire.CHTEntry itself — node, state and instance serial: the client
// adds entries for the StartNodes before dispatching (Figure 2,
// send_query), every query server adds entries for the clones it forwards
// before it forwards them, and every server report — a processed node, a
// purged duplicate, or a failed forward — retires exactly one entry. The
// table has no clock and no lock; a Query drives it under its mutex, and
// the table decides how the query ends: it counts the reports' typed
// fates (Shed, Expired and Err read them), names the sites still to be
// told to stop, and decides whether stranded entries are replayed or
// written off. The Query keeps the reaper's timer and the sends.
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
// row is appended once, to the query's feed (feed.go), the one log that
// Results, Rows (a pull iterator) and Stream (a bounded channel) all read,
// with watermark-based backpressure accounting in Stats. A Watch delivers
// its deltas through the same feed.
package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
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

// ErrPartial reports that the query completed degraded: the user-site
// wrote off CHT entries — undeliverable clones no proxy took, or orphans
// its reaper retired — so part of the web went unanswered.
var ErrPartial = errors.New("client: query completed partial")

// Options configure a Client, threaded down from core.Config. The zero
// value is a plain user-site: no proxy, no reaper, no tracing.
type Options struct {
	// Proxy is the user-site's own query server, started by the caller
	// with no DocSource: the Section 7.1 migration path. Clones that could
	// not be delivered to their site — bounced back by servers or refused
	// at submission — are sent to it as plain clones; it evaluates them on
	// downloaded documents and forwards their continuations to the next
	// participating site. Without a proxy such clones are written off and
	// the query completes Partial.
	Proxy *server.Server
	// ReapGrace arms the orphan-CHT reaper: when a query has seen no
	// report for the grace window while CHT entries remain outstanding,
	// the reaper writes off the orphans, which makes the query Partial
	// with the sites it could not account for, and completes it. Zero or
	// negative disables the reaper.
	ReapGrace time.Duration
	// Metrics shares a deployment-wide metrics collector so client-side
	// protocol events (reaped CHT entries, connection reuse) appear in
	// the same snapshot as the servers' counters. Optional: without one
	// the client counts into a collector of its own.
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
	// Done, when non-nil, bounds the lifetime of every goroutine this
	// client's queries start: when the channel closes (the owning
	// deployment shut down), stream pumps and watch loops exit even if
	// their consumer abandoned the channel with a background context.
	// Nil means bounded by Close alone.
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

	// out is the user-site's Query Dispatcher: the same sender a server
	// forwards clones with, sending each message once.
	out *server.Sender

	// life ends at Close or when Options.Done closes: the bound of every
	// stream pump and watch.
	life    context.Context
	endLife context.CancelFunc

	mu       sync.Mutex
	next     int
	closed   bool
	endpoint string
	serving  *netsim.Serving // the Result Collector, once opened
	queries  map[int]*Query  // routing table: running queries
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
//
// The client numbers its queries from 1, and their ids are (user, base
// collector, number). Sites keep per-query state — a site's log table
// drops an arrival it has logged — until a sweep frees it, so (user,
// base) must name one client run: a later client under the same pair
// against the same sites would have its answers dropped as duplicates of
// the earlier one's.
func NewWith(tr netsim.Transport, user, base string, opts Options) *Client {
	if opts.Metrics == nil {
		opts.Metrics = &server.Metrics{}
	}
	c := &Client{tr: tr, user: user, base: base, opts: opts,
		out: server.NewSender(tr, base+"/c", opts.Metrics, opts.Journal, opts.Cluster)}
	c.life, c.endLife = lifetime(opts.Done)
	return c
}

// open binds the collector endpoint on first use: one listener and one
// serving loop for the client's lifetime. Remote sites dial the endpoint
// — the paper's "IP address and port number sent along with the
// web-query" — once, and keep the negotiated session for every later
// query of this client. Callers hold c.mu.
func (c *Client) open() error {
	if c.closed {
		return ErrClosed
	}
	if c.serving != nil {
		return nil
	}
	endpoint := c.base + "/c"
	ln, err := c.tr.Listen(endpoint)
	if err != nil {
		return fmt.Errorf("client: result collector: %w", err)
	}
	c.endpoint = endpoint
	c.queries = make(map[int]*Query)
	c.watches = make(map[int]*Watch)
	c.reporters = make(map[string]bool)
	// Accepted connections are tracked so Close can close them: servers
	// pool their collector connections between reports, and passive
	// termination (Section 2.8) requires the next report after Close to
	// FAIL at its sender.
	c.serving = netsim.Serve(ln, c.serve)
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

// serve decodes one reporting site's persistent session. The session is
// kept only if its first report belongs to a query still routed: the site
// is waiting for that verdict before it forwards any clone (wire.Settle),
// and closing the connection instead is the failed dispatch of Section
// 2.8 — a site that never reported here purges a cancelled query the
// passive way. Once kept, the session is shared by every query, no report
// on it can fail, and its site is remembered for Query.Cancel to stop.
// Every frame is routed to its query or watch by id, the owner resolved
// outside any per-query lock, so routing for one query never blocks on
// another's merge.
func (c *Client) serve(conn net.Conn) {
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
				q.undeliverable(m.Clone, m.Reason)
			}
		case *wire.DeltaMsg:
			c.mu.Lock()
			w := c.watches[m.ID.Num]
			c.mu.Unlock()
			if w != nil {
				w.notify(m)
			}
		}
	}
}

// reporter names the site a result frame came from. A report retires the
// entries of one clone, whose destinations all live at one site: the
// reporting site, or a site the user-site's proxy stands in for.
func reporter(m *wire.ResultMsg) string {
	if len(m.Updates) > 0 {
		return webgraph.Host(m.Updates[0].Processed.Node)
	}
	return ""
}

// reporting lists the sites that hold a session to the collector.
func (c *Client) reporting() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Collect(maps.Keys(c.reporters))
}

// learn records site as holding a session to the collector and returns it.
func (c *Client) learn(site string) string {
	if site != "" {
		c.mu.Lock()
		c.reporters[site] = true // made by open, before any session
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
// endpoint, its accepted connections and the pool close, every query
// still running is cancelled, and every stream closes. From then on a
// site's report fails at its sender, which purges the query locally — the
// paper's passive termination, for everything this client had in flight.
// Idempotent.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	serving, queries, watches := c.serving, c.queries, c.watches
	c.queries, c.watches = nil, nil
	c.mu.Unlock()
	// Watches first: their deregistration still needs the sender.
	for _, w := range watches {
		w.Close()
	}
	if serving != nil {
		serving.Close()
	}
	c.out.Close()
	for _, q := range queries {
		q.abandon()
	}
	if serving != nil {
		serving.Wait()
	}
	c.endLife()
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
	EntriesRetired int           // entries retired by reports, counted once announced
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
	// unbind releases the submit context's hold on the query (watch).
	unbind func() bool

	// rec, when non-nil, records the raw result flow — every reported
	// node table and every parent→child CHT edge — before deduplication.
	// The continuous-query layer replays this recording to maintain a
	// standing result set incrementally (see watch.go).
	rec *recording

	proxy   *server.Server
	met     *server.Metrics
	journal *trace.Journal
	spanSeq atomic.Int64

	// Replication (all nil/zero without Options.Cluster). cluster is the
	// shared membership table; replayable is set when the query carries
	// no correlated-stage environment (a replayed clone cannot recover
	// one).
	cluster    *cluster.Membership
	budget     wire.Budget
	replayable bool
	replayVia  map[string]map[string]bool // site -> replicas used by replay rounds

	mu         sync.Mutex
	cht        cht
	stitched   []trace.Event // span events recovered from result reports
	stats      Stats
	started    time.Time
	lastReport time.Time // last CHT activity, watched by the reaper

	// rows is every merged row, once, in merge order; its end is the
	// query's (done, with the error of a cancel). stages keeps, per stage
	// that reported a table, its columns and the keys of the rows merged.
	rows   feed[StreamRow]
	stages map[int]stageRows
	// keys and fresh are mergeTables' scratch, reused from frame to frame.
	keys  []byte
	fresh []freshRow

	// Aggregation state (all zero for classic queries). output is the
	// query's GROUP BY / ORDER BY / LIMIT contract; finalStage the stage
	// it applies to (always the last); frag the plan fragment every clone
	// of an aggregating or limited query carries, so each site folds its
	// final-stage rows before they ship. For grouped queries, acc folds
	// the sites' partial state, one contribution at a time (contribSeen),
	// and the final table materializes into the stream when the query
	// finishes.
	output      *nodequery.OutputSpec
	finalStage  int
	frag        *wire.PlanFrag
	acc         *plan.Acc
	contribSeen map[contrib]bool
}

// contrib identifies one node-query contribution: the (node, stage,
// environment) triple under which its rows were computed. Evaluation is
// deterministic given those three, so the aggregate fold deduplicates
// whole contributions by it — re-arrivals of the same state must not
// count twice, while the same node answering under two different
// upstream bindings counts once per binding.
type contrib struct {
	node  string
	stage int
	env   string // the rows' wire.EnvKey
}

// stageRows is what a query keeps of one stage besides its rows: the
// columns, and the keys of the rows merged so far — one per row.
type stageRows struct {
	cols []string
	seen map[string]bool
}

// correlated reports whether a stage of w references outer columns. A
// clone rebuilt from its CHT entry cannot recover the environment the
// original carried, so neither a replay nor a watch's re-derivation can
// resume such a query.
func correlated(w *disql.WebQuery) bool {
	return slices.ContainsFunc(w.Stages, func(st disql.Stage) bool {
		return st.Query != nil && len(st.Query.Outer) > 0
	})
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
// The tie is released when the query finishes.
func (q *Query) watch(ctx context.Context) {
	unbind := context.AfterFunc(ctx, q.Cancel)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rows.done {
		unbind()
		return
	}
	q.unbind = unbind
}

// newQuery builds a query over w, enters it in the client's routing table
// under a fresh id and arms its reaper. Nothing is dispatched yet.
func (c *Client) newQuery(w *disql.WebQuery, b wire.Budget, rec *recording) (*Query, error) {
	now := time.Now()
	q := &Query{
		web:        w,
		c:          c,
		proxy:      c.opts.Proxy,
		met:        c.opts.Metrics,
		journal:    c.opts.Journal,
		cluster:    c.opts.Cluster,
		budget:     b,
		doneCh:     make(chan struct{}),
		cht:        newCHT(),
		stages:     make(map[int]stageRows),
		started:    now,
		lastReport: now,
		rec:        rec,
	}
	q.rows.cond.L = &q.mu
	if w.Output != nil {
		q.output = w.Output
		q.finalStage = len(w.Stages) - 1
		if w.Output.Grouped() || w.Output.Limit > 0 {
			q.frag = &wire.PlanFrag{Stage: q.finalStage, Spec: *w.Output}
		}
		if w.Output.Grouped() {
			q.acc = plan.NewAcc(w.Output)
			q.contribSeen = make(map[contrib]bool)
		}
	}
	if q.cluster != nil && !correlated(w) {
		q.replayable = true
		q.replayVia = make(map[string]map[string]bool)
	}
	err := c.attach(func(id wire.QueryID) {
		q.id = id
		c.queries[id.Num] = q
	})
	if err != nil {
		return nil, err
	}
	if grace := c.opts.ReapGrace; grace > 0 {
		go q.reaper(grace)
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
	if sites, err := q.dispatchRoots(roots); err != nil && sites == 1 {
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
// messages and the first dispatch failure whose clone was written off.
func (q *Query) dispatchRoots(roots []wire.CHTEntry) (int, error) {
	total := len(q.web.Stages)
	entries := make([]wire.CHTEntry, 0, len(roots))
	seen := make(map[wire.CHTEntry]bool, len(roots))
	q.mu.Lock()
	for _, r := range roots {
		r = wire.CHTEntry{Node: r.Node, State: r.State}
		if r.State.NumQ < 1 || r.State.NumQ > total || seen[r] {
			continue
		}
		seen[r] = true
		r.Origin, r.Seq = q.id.Site, int64(len(entries)+1)
		entries = append(entries, r)
		q.cht.announce(r)
	}
	q.mu.Unlock()

	msgs := q.clones(entries, 0)
	var firstErr error
	for _, msg := range msgs {
		site := webgraph.Host(msg.Dest[0].URL)
		q.jot(msg, trace.Dispatch, site)
		if _, err := q.sendSite(site, msg, nil); err != nil && q.undeliverable(msg, wire.BounceNoServer) && firstErr == nil {
			firstErr = err
		}
	}
	// An empty root set (or every dispatch failing) must still complete.
	q.mu.Lock()
	q.maybeComplete()
	q.mu.Unlock()
	return len(msgs), firstErr
}

// clones groups entries by (site, state) into clone messages, one per
// group with the entries as its destinations in the order given, sorted
// by site and state: the per-site batching of a forward (Section 3.2 item
// 4). It builds the root clones of a submission (hops 0) and the clones a
// replay re-dispatches mid-traversal (hops 1), and stamps the query's
// plan fragment on both. Every entry's state must lie within the query's
// stages.
func (q *Query) clones(entries []wire.CHTEntry, hops int) []*wire.CloneMsg {
	type group struct {
		host  string
		state wire.State
	}
	stages := q.web.Stages
	msgs := make(map[group]*wire.CloneMsg)
	var order []group
	for _, e := range entries {
		g := group{webgraph.Host(e.Node), e.State}
		msg := msgs[g]
		if msg == nil {
			base := len(stages) - e.State.NumQ
			msg = &wire.CloneMsg{
				ID:     q.id,
				Rem:    e.State.Rem,
				Base:   base,
				Stages: nodeproc.EncodeStages(stages[base:]),
				Hops:   hops,
				Budget: q.budget,
				Frag:   q.frag,
			}
			msgs[g] = msg
			order = append(order, g)
		}
		msg.Dest = append(msg.Dest, wire.DestNode{URL: e.Node, Origin: e.Origin, Seq: e.Seq})
	}
	slices.SortFunc(order, func(a, b group) int {
		return cmp.Or(strings.Compare(a.host, b.host), compareStates(a.state, b.state))
	})
	out := make([]*wire.CloneMsg, len(order))
	for i, g := range order {
		out[i] = msgs[g]
		if q.journal != nil {
			// Root and replay spans: one per clone message, parented by nothing.
			out[i].Span = wire.SpanID{Origin: q.id.Site, Seq: q.spanSeq.Add(1)}
		}
	}
	return out
}

// undeliverable decides, in one place, the fate of a clone that could
// not reach its site — bounced back by a server, or refused at
// submission. A clone the network could not deliver goes to the proxy as
// a plain clone (Section 7.1). Anything else is written off: there is no
// proxy, the proxy refuses it, or the clone is malformed (the proxy would
// only bounce it back). It reports whether the clone was written off.
func (q *Query) undeliverable(c *wire.CloneMsg, reason string) bool {
	q.mu.Lock()
	if q.rows.done || len(c.Dest) == 0 {
		q.mu.Unlock()
		return false
	}
	q.lastReport = time.Now()
	q.mu.Unlock()
	if q.proxy != nil && reason != wire.BounceMalformed {
		q.jot(c, trace.Bounce, reason)
		if q.c.out.Send(q.proxy.Self(), c) == nil {
			if reason == wire.BounceRetryExhausted {
				q.met.RecoveredByBounce.Add(1)
			}
			return false
		}
	}
	q.jot(c, trace.ForwardFailed, webgraph.Host(c.Dest[0].URL))
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rows.done {
		return false
	}
	for _, u := range c.Retirements() {
		if q.cht.writeOff(u.Processed) {
			q.met.DupRetired.Add(1)
		}
	}
	q.maybeComplete()
	return true
}

// Shed reports whether any site refused the query under admission
// control (load shedding). A shed query still completes — with answers
// only from the sites that accepted it; resubmit later for the rest.
func (q *Query) Shed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cht.fates[wire.FateShed] > 0
}

// merge implements receive_results of Figure 2 under the counting-CHT
// refinement: retire the processed entry, enter the children, and check
// for completion. One ResultMsg carries the report of one processed
// clone (Figure 3, lines 17–20), with its fate: a shed clone — a site
// over its high watermark declined to start the query — surfaces via Shed,
// distinct from the fault-path bounce, which still owes processing. After
// the lock drops, any pending
// active-termination broadcast (Budget.FirstN newly satisfied, or new
// sites appearing while stopping) is shipped. It reports whether the
// query was still running to take it.
func (q *Query) merge(rm *wire.ResultMsg) bool {
	q.mu.Lock()
	if q.rows.done {
		q.mu.Unlock()
		return false
	}
	if q.cluster != nil && rm.From != "" && rm.Inc > 0 && q.cluster.Incarnation(rm.From) > rm.Inc {
		// The frame was sent before its replica crashed and re-registered:
		// the entries it would retire have been (or will be) replayed, so
		// merging it would double-retire them. Drop the whole frame; the
		// replay's own reports carry the authoritative accounting.
		q.stats.StaleRejected++
		q.met.StaleRejected.Add(1)
		q.mu.Unlock()
		return true
	}
	q.stats.ResultMsgs++
	q.lastReport = time.Now()
	if !rm.Span.IsZero() {
		q.stitch(rm)
	}
	q.mergeTables(rm.Tables)
	if q.rec != nil {
		q.rec.fold(rm)
	}
	for _, u := range rm.Updates {
		if q.cht.retire(u.Processed, rm.Fate) {
			q.met.DupRetired.Add(1)
		}
		for _, child := range u.Children {
			q.cht.announce(child)
		}
	}
	q.maybeComplete()
	if n := q.budget.FirstN; n > 0 && len(q.rows.log) >= n {
		// The user-site row target is met: stop the query's clones.
		q.cht.stop()
	}
	var stops []string
	if !q.rows.done {
		stops = q.cht.stopTargets(true, q.proxySite())
	}
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
	// A typed retirement books the span's fate as EXPIRED, STOPPED or
	// SHED, not processed, so budget, active and admission terminations
	// reconcile exactly in the stitched journey.
	kind := fateKinds[r.Fate]
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

// fateKinds maps a report's fate to the trace event that books it.
var fateKinds = [...]trace.Kind{
	wire.FateProcessed: trace.Result,
	wire.FateExpired:   trace.Expire,
	wire.FateStopped:   trace.Stop,
	wire.FateShed:      trace.Shed,
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

// freshRow is a row of a frame whose key was not yet seen when the frame
// arrived: its table and row, and where its key ends in the frame's keys.
type freshRow struct {
	table, row, end int
}

// mergeTables merges one frame's tables. A grouped query's final-stage
// tables fold into the aggregate; every other row joins its stage's rows
// once, deduplicated by its key. The keys of the frame's rows are built
// end to end in one buffer and looked up from it; the keys of the rows
// not yet seen are then cut from one string, so a frame costs one key
// allocation however many rows it brings. Callers hold q.mu.
func (q *Query) mergeTables(tables []wire.NodeTable) {
	keys, fresh := q.keys[:0], q.fresh[:0]
	for ti := range tables {
		t := &tables[ti]
		if q.acc != nil && t.Stage == q.finalStage {
			// Grouped query: final-stage rows are aggregate input, not
			// output. Every clone carries the query's fragment, so the site
			// has already folded them to partial state; a table that is not
			// partial was computed without it and cannot be folded. Fold each
			// contribution once and emit nothing to the stream; the final
			// table materializes at completion.
			key := contrib{t.Node, t.Stage, t.Env}
			if !t.Partial || q.contribSeen[key] {
				continue
			}
			q.contribSeen[key] = true
			q.acc.AddPartial(t.Rows)
			continue
		}
		st, ok := q.stages[t.Stage]
		if !ok {
			st = stageRows{cols: t.Cols, seen: make(map[string]bool)}
			q.stages[t.Stage] = st
		}
		for ri, row := range t.Rows {
			start := len(keys)
			keys = appendRowKey(keys, row)
			if st.seen[string(keys[start:])] {
				keys = keys[:start]
				continue
			}
			fresh = append(fresh, freshRow{ti, ri, len(keys)})
		}
	}
	if len(fresh) > 0 {
		all, start := string(keys), 0
		for _, f := range fresh {
			key := all[start:f.end]
			start = f.end
			t := &tables[f.table]
			st := q.stages[t.Stage]
			if st.seen[key] {
				continue // a row this frame already brought
			}
			st.seen[key] = true
			if len(q.rows.log) == 0 && q.stats.FirstRow == 0 {
				q.stats.FirstRow = time.Since(q.started)
			}
			q.rows.add(StreamRow{Stage: t.Stage, Row: t.Rows[f.row]})
		}
	}
	q.keys, q.fresh = keys[:0], fresh[:0]
}

// proxySite names the proxy's site, or "" without one: the proxy may hold
// a clone of any site without a query server, so every stop goes there too.
func (q *Query) proxySite() string {
	if q.proxy == nil {
		return ""
	}
	return q.proxy.Site()
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
			if q.c.out.Send(ep, &wire.StopMsg{ID: q.id, Reason: reason}) == nil {
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
	if q.rows.done {
		q.mu.Unlock()
		return
	}
	q.cht.stop()
	stops := q.cht.stopTargets(true, q.proxySite())
	q.mu.Unlock()
	q.broadcastStop(stops, reason)
}

// Stopped reports whether active termination was triggered (by
// Budget.FirstN, Stop, or a cancelled submit context).
func (q *Query) Stopped() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cht.stopping
}

// appendRowKey appends the key that identifies row for deduplication:
// every cell followed by a NUL.
func appendRowKey(b []byte, row []string) []byte {
	for _, v := range row {
		b = append(b, v...)
		b = append(b, 0)
	}
	return b
}

// reaper watches the query for orphaned CHT entries: when no report has
// arrived for the grace window while counts remain outstanding, the
// stranded entries belong to clones that will never report — a crashed
// site that accepted them, a severed report, a partition. The reaper
// retires them, marks the query Partial with the unaccounted-for sites,
// and completes it. Nothing is sent: the query leaves the routing table
// as on normal completion, and a straggler report is dropped there.
func (q *Query) reaper(grace time.Duration) {
	t := time.NewTimer(grace)
	defer t.Stop()
	for {
		select {
		case <-q.doneCh:
			return
		case <-t.C:
		}
		q.mu.Lock()
		if q.rows.done {
			q.mu.Unlock()
			return
		}
		if idle := time.Since(q.lastReport); idle < grace {
			q.mu.Unlock()
			t.Reset(grace - idle)
			continue
		}
		if q.proxy != nil && q.proxy.Queued(q.id) > 0 {
			// The proxy still has clones queued or being handled that will
			// produce reports.
			q.mu.Unlock()
			t.Reset(grace)
			continue
		}
		// Before writing the orphans off, try to resume them: a replicated
		// deployment can replay the stranded clones against a surviving
		// replica (mid-traversal failover driven from the user-site). Only
		// when replay is not possible — or has been tried and the entries
		// stayed orphaned — does the reaper give up coverage.
		var live []wire.CHTEntry
		if q.replayable {
			live = q.cht.replay(len(q.web.Stages))
		}
		if live == nil {
			q.reap()
			q.mu.Unlock()
			return
		}
		clones := q.clones(live, 1) // mid-traversal resume, not a fresh root
		q.mu.Unlock()
		if q.replay(clones) > 0 {
			q.mu.Lock()
			q.lastReport = time.Now()
			q.mu.Unlock()
		}
		t.Reset(grace)
	}
}

// reap writes off every live CHT entry, drops the ghosts, and finishes
// the query. A table holding only ghost entries (reports whose
// announcement never came) had every announced clone report, so it adds
// no loss. Callers hold q.mu.
func (q *Query) reap() {
	reaped := q.cht.reap()
	q.journal.Append(trace.Event{
		Query: q.id.String(), Kind: trace.Reap,
		Detail: strconv.Itoa(reaped) + " entries, sites: " + strings.Join(q.cht.Unreachable, ","),
	})
	q.finish(nil)
}

// The user-site half of replica routing: the reaper replays the clones
// stranded inside a crashed replica to a surviving one, through the
// client's sender (Sender.SendSite).

// sendSite delivers one clone to the named logical site through the
// client's sender, failing over to the next live replica when a send
// fails, and books the failovers on the query. Replicas in exclude (the
// replay rotation's memory) are not picked. It reports the endpoint that
// took the clone.
func (q *Query) sendSite(site string, msg *wire.CloneMsg, exclude map[string]bool) (string, error) {
	ep, failovers, err := q.c.out.SendSite(site, msg, exclude)
	if failovers > 0 {
		q.mu.Lock()
		q.stats.Failovers += failovers
		q.mu.Unlock()
	}
	return ep, err
}

// replay dispatches reconstructed orphan clones to surviving replicas and
// returns how many were accepted. Rounds rotate replicas: a replica used
// by an earlier round for the same site is excluded, because a silently
// failing replica — one that accepts clones but whose reports never
// arrive — still looks alive to the membership table, and replaying into
// it forever would turn the replay loop into a wedge. Callers must NOT
// hold q.mu.
func (q *Query) replay(clones []*wire.CloneMsg) int {
	sent := 0
	for _, msg := range clones {
		site := webgraph.Host(msg.Dest[0].URL)
		q.mu.Lock()
		exclude := q.replayVia[site]
		q.mu.Unlock()
		if q.journal != nil {
			q.journal.Append(trace.Event{
				Query: q.id.String(), Span: msg.Span, Kind: trace.Replay,
				State: msg.State().String(), Hop: msg.Hops,
				Detail: site + ": " + strconv.Itoa(len(msg.Dest)) + " stranded",
			})
		}
		ep, err := q.sendSite(site, msg, exclude)
		if err != nil && len(exclude) > 0 {
			// Every not-yet-rotated replica failed; the one we are avoiding
			// may be the only survivor (or back from the dead). Retry open.
			ep, err = q.sendSite(site, msg, nil)
		}
		if err != nil {
			continue
		}
		sent++
		q.mu.Lock()
		if q.replayVia[site] == nil {
			q.replayVia[site] = make(map[string]bool)
		}
		q.replayVia[site][ep] = true
		q.stats.Replays++
		q.mu.Unlock()
		q.met.ReplicaReplays.Add(1)
	}
	return sent
}

// Partial reports whether the query is degraded: CHT entries were
// written off, so the answer covers only the reachable part of the web.
func (q *Query) Partial() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cht.Reaped > 0
}

// Unreachable returns the sorted sites whose CHT entries were written
// off — the part of the web the answer does not cover. Empty unless
// Partial.
func (q *Query) Unreachable() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return slices.Clone(q.cht.Unreachable)
}

// maybeComplete finishes the query when every CHT count is zero. Callers
// hold q.mu.
func (q *Query) maybeComplete() {
	if !q.cht.drained() || q.rows.done {
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
	if q.rows.done {
		return
	}
	q.stats.Duration = time.Since(q.started)
	q.met.CHTReaped.Add(int64(q.cht.Reaped)) // every write-off, booked once
	if q.acc != nil {
		// Materialize the grouped final table into the stream so Rows and
		// Stream deliver it: aggregates cannot stream incrementally — a
		// group's value is only final when every contribution is in.
		_, rows := q.acc.FinalTable()
		for _, row := range rows {
			q.rows.add(StreamRow{Stage: q.finalStage, Row: row})
		}
	}
	q.rows.end(err) // wake stream consumers: no more rows are coming
	close(q.doneCh)
	if q.unbind != nil {
		q.unbind()
	}
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
	reporters := q.c.reporting()
	q.mu.Lock()
	if q.rows.done {
		q.mu.Unlock()
		return
	}
	q.cht.stop()
	var stops []string
	if !q.cht.drained() {
		// Not the live entries' sites: one without a session purges the
		// query when its first report is refused.
		stops = q.cht.stopTargets(false, append(reporters, q.proxySite())...)
	}
	q.finish(ErrCancelled)
	q.mu.Unlock()
	q.broadcastStop(stops, cancelReason)
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
	if !q.rows.done {
		return ErrTimeout
	}
	return q.rows.err
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
	return q.rows.done
}

// LiveEntries returns the number of CHT entries with a nonzero count.
func (q *Query) LiveEntries() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cht.nonzero
}

// Progress estimates how much of the query has executed, as the fraction
// of announced CHT entries already retired (0 when nothing has reported,
// below 1 until completion, 1 at completion). Because results stream to
// the user-site as they are found (Section 2.6), Results called before
// completion returns the answers gathered so far — together with Progress this gives anytime,
// approximate answers: cancel at a deadline and keep the partial result.
func (q *Query) Progress() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rows.done {
		return 1
	}
	return q.cht.progress()
}

// RowCount returns the number of result rows gathered so far, across all
// stages.
func (q *Query) RowCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, st := range q.stages {
		n += len(st.seen)
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
	t := &q.cht
	st.EntriesAdded, st.EntriesRetired, st.GhostReports = t.EntriesAdded, t.EntriesRetired, t.GhostReports
	st.PeakLive, st.Reaped, st.DupRetired = t.PeakLive, t.Reaped, t.DupRetired
	st.RowsStreamed = q.rows.read
	st.ConsumerLag = len(q.rows.log) - q.rows.read
	st.StreamHighWater = q.rows.high
	return st
}

// Expired reports whether any clone was terminated for exceeding the
// query's budget: the answer is clipped, not exhaustive.
func (q *Query) Expired() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cht.fates[wire.FateExpired] > 0
}

// Err types how a finished query degraded, matchable with errors.Is: nil
// for a clean, complete answer; ErrCancelled/ErrTimeout when the query
// was abandoned; otherwise any applicable combination of ErrShed
// (admission control refused sites), ErrPartial (entries written off)
// and ErrExpired (budget clipped clones), joined. A non-nil Err
// does not mean Results is empty — it means the answer's coverage is
// qualified.
func (q *Query) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rows.err != nil {
		return q.rows.err
	}
	return q.cht.err()
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
		q.rows.each(context.Background(), func(r StreamRow) bool { return yield(r.Stage, r.Row) })
	}
}

// Stream returns a bounded channel of the query's rows in merge order,
// from the first row. The channel closes when the query finishes (after
// delivering every row) or when ctx ends — the abandon-safe form of
// Rows for select loops. A slow consumer never blocks merge: rows spill
// into the query's ordered log and the lag is accounted in Stats.
//
// The pump is additionally bounded by the client's life (Close, or
// Options.Done): a consumer that abandons the channel with a background
// context would otherwise pin the pump forever on a finished query's
// undelivered rows, outliving the deployment that owns the transport.
func (q *Query) Stream(ctx context.Context) <-chan StreamRow {
	return q.rows.stream(ctx, q.c.life)
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
	stages := make([]int, 0, len(q.stages))
	for s := range q.stages {
		stages = append(stages, s)
	}
	sort.Ints(stages)
	out := make([]ResultTable, 0, len(stages)+1)
	for _, s := range stages {
		// A grouped query's final stage never reaches stages: its rows
		// fold into the aggregate table below.
		st := q.stages[s]
		rows := make([][]string, 0, len(st.seen))
		for _, r := range q.rows.log {
			if r.Stage == s {
				rows = append(rows, r.Row)
			}
		}
		if q.output != nil && q.acc == nil && s == q.finalStage {
			rows = plan.SortLimit(rows, st.cols, q.output)
		} else {
			slices.SortFunc(rows, slices.Compare)
		}
		out = append(out, ResultTable{Stage: s, Cols: st.cols, Rows: rows})
	}
	if q.acc != nil {
		cols, rows := q.acc.FinalTable()
		out = append(out, ResultTable{Stage: q.finalStage, Cols: cols, Rows: rows})
	}
	return out
}
