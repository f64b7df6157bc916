// Package server implements the WEBDIS query server: the daemon process
// that runs at every participating web site, receives web-query clones,
// evaluates node-queries against locally hosted documents, streams results
// and CHT updates straight back to the user-site, and forwards the
// remaining query along matching hyperlinks (paper Sections 2.4–2.8 and
// the algorithms of Figures 3 and 4).
//
// Its components mirror the paper's Section 4.4: a Query Receiver
// listening on the site's well-known endpoint, a Query Processor draining
// a queue of pending clones sequentially, Query and Result Dispatchers,
// and the Database Constructor (in package nodeproc). The Node-query Log
// Table (Section 3.1.1) suppresses duplicate recomputation.
//
// One deliberate refinement over the paper's prose: when the log table
// purges a duplicate arrival, the server still dispatches a CHT update
// retiring the dropped entry. The user-site tracks CHT entries as a
// counting multiset, so "every forwarded clone produces exactly one
// report" becomes the completion invariant; combined with the paper's
// CHT-before-forward ordering this makes completion detection sound even
// when clones race along different paths (see DESIGN.md).
package server

import (
	"container/list"
	"errors"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webdis/internal/cluster"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/relmodel"
	"webdis/internal/sched"
	"webdis/internal/store"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

// Suffix appended to a site name to form its query-server endpoint — the
// analog of the paper's "common pre-specified port number at all sites".
const Suffix = "/query"

// Endpoint returns the transport endpoint name of site's query server.
func Endpoint(site string) string { return site + Suffix }

// DocSource supplies the raw content of locally hosted documents.
// webserver.Host implements it. A server built without one hosts no
// documents: it is the user-site's proxy of the paper's Section 7.1
// migration path, downloading every node it evaluates.
type DocSource interface {
	Get(url string) ([]byte, error)
}

// Options configure a Server. The zero value is the paper's design:
// subsumption dedup, per-site clone batching, no hop bound, no periodic
// purge.
type Options struct {
	// Dedup selects the Node-query Log Table mode; the zero value is
	// DedupSubsume, the paper's scheme.
	Dedup nodeproc.DedupMode
	// NoBatch disables per-site clone batching (Section 3.2, item 4):
	// every destination node gets its own clone message.
	NoBatch bool
	// MaxHops, when positive, stops forwarding clones that have already
	// traversed that many links. It is a safety bound for ablation runs
	// with dedup off on cyclic webs; the paper's design does not need it.
	MaxHops int
	// StrictDeadEnds applies the literal Figure-4 pseudocode: a failed
	// node-query forwards nothing at all, not even the continuation of
	// the current PRE. The default (false) follows the paper's worked
	// examples, which cancel only the advance to the next node-query —
	// see the nodeproc.StepResult.DeadEnd documentation.
	StrictDeadEnds bool
	// Workers is the number of Query Processor goroutines draining the
	// clone queue. The paper's processor is a single thread that
	// "sequentially processes the queue of pending web-queries"; that is
	// the default (0 or 1). Higher values are an ablation of that design
	// choice — every shared structure (log table, metrics, transport) is
	// already concurrency-safe.
	Workers int
	// CacheDBs retains each node's constructed virtual-relation database
	// instead of purging it after the node-query (the paper's footnote 3:
	// a site expecting repeat visits "can choose to retain the associated
	// database so that the construction cost does not have to be paid
	// repeatedly"). The default follows the paper's main design: build
	// per evaluation, purge immediately.
	CacheDBs bool
	// DBCacheEntries bounds the CacheDBs retention to an LRU of this
	// many node databases; evictions count into Metrics.DBCacheEvicted.
	// 0 is the seed behaviour: the cache grows without limit. Ignored
	// without CacheDBs.
	DBCacheEntries int
	// Store plugs in the persistent page-based site store (package
	// store): the server opens — or on first start builds — its site's
	// heap file under Store.Dir and serves local databases from slotted
	// pages through a bounded buffer pool, with contains-predicates
	// answered by the persisted text index. The zero value keeps the
	// in-RAM Database Constructor.
	Store StoreOptions
	// LogPurgeAge and LogPurgeEvery, when both are positive, free every
	// LogPurgeEvery the per-query state idle longer than LogPurgeAge — its
	// log entries (the paper's periodic purge), stop flag and serial — of
	// each query with no clone queued or being handled and no watch.
	LogPurgeAge   time.Duration
	LogPurgeEvery time.Duration
	// Retry bounds the resilience loop around every remote send (clone
	// forwards, result dispatches, bounces): per-attempt timeout and
	// bounded exponential backoff with jitter. The zero value sends once
	// with no timeout — the paper's failure-is-terminal behaviour.
	Retry RetryPolicy
	// Sched configures the Query Processor's clone scheduler (package
	// sched): weighted fair queueing across concurrent queries and
	// watermark admission control with typed SHED refusals. The zero
	// value is the seed behaviour — one unbounded FIFO, nothing shed.
	Sched sched.Options
	// Seed seeds the server's private randomness (retry-backoff jitter).
	// Zero derives a stable per-site seed from the site name, so runs
	// are reproducible either way; set it only to decorrelate sites
	// differently across repetitions.
	Seed int64
	// Journal, when set, receives causal trace events (package trace):
	// one arrival per clone message, per-node processing events, and one
	// forward/bounce/terminate fate per outgoing clone. Span ids are
	// assigned to outgoing clones whenever the journal is set or the
	// arriving clone already carries one, so traced context propagates
	// across sites that journal and sites that merely relay.
	Journal *trace.Journal
	// Cluster, when set, is the deployment's shared replica membership
	// table: the server is replica number Replica of its site, listens
	// on the replica endpoint, resolves every clone forward through
	// Pick, and — when the retry policy exhausts against one replica —
	// re-resolves and replays against the next live one instead of
	// falling straight into the bounce path.
	Cluster *cluster.Membership
	// Replica is this server's index among its site's replicas (0 is
	// the classic endpoint; only meaningful with Cluster set).
	Replica int
}

// Server is one site's WEBDIS query server.
type Server struct {
	site string
	// self is the endpoint this server listens on and stamps as the
	// origin of the instance serials it mints: the classic
	// "<site>/query" for replica 0, "<site>/query@i" above. Distinct
	// origins keep (Origin, Seq) serials unique across a site's
	// replicas.
	self string
	// inc is this replica's membership incarnation, stamped on result
	// frames so the user-site can reject replies that predate a
	// restart; 0 when unclustered.
	inc  int64
	docs DocSource
	tr   netsim.Transport
	met  *Metrics
	opts Options
	eval nodeproc.Evaluator // Figures 3–4 (package nodeproc) at this server
	// out sends every message this server ships — clone forwards, result
	// reports, bounces, deltas — to other sites and to user-sites.
	out *Sender

	queue *sched.Queue[item]
	// seq numbers the trace spans this server opens (wire.SpanID).
	seq atomic.Int64

	// queries holds one record per query this site keeps state for
	// (query.go); nums numbers them in the log table; clients holds the
	// serial floor of every client whose queries the site has numbered.
	qmu     sync.Mutex
	queries map[wire.QueryID]*query
	nums    uint64
	clients map[[2]string]client

	// dbCache holds one entry per node whose database is built or being
	// built: entries coalesce concurrent builds (singleflight) and, when
	// opts.CacheDBs is set, persist the finished database for repeat
	// visits. Read-mostly once warm, hence the RWMutex.
	dbMu    sync.RWMutex
	dbCache map[string]*dbEntry
	// dbLRU/dbPos bound the CacheDBs retention to Options.DBCacheEntries
	// databases (nil = unbounded, the seed behaviour). Both are guarded
	// by dbMu; only completed, retained builds appear in them, so an
	// in-flight singleflight entry can never be evicted from under its
	// waiters.
	dbLRU *list.List
	dbPos map[string]*list.Element

	// store is the persistent page-based site store, opened (or first
	// built) at Start when opts.Store is enabled; nil otherwise.
	store *store.Store

	// fetch downloads the documents of nodes this site does not host.
	fetch webserver.Fetcher

	mu      sync.Mutex
	serving *netsim.Serving // the Query Receiver
	stop    chan struct{}
	wg      sync.WaitGroup
}

// New returns a server for site, reading documents from docs and speaking
// over tr. met may be shared across servers; it must not be nil. A nil
// docs builds the user-site's proxy (see DocSource).
func New(site string, docs DocSource, tr netsim.Transport, met *Metrics, opts Options) *Server {
	s := &Server{
		site:    site,
		self:    cluster.ReplicaEndpoint(site, opts.Replica),
		docs:    docs,
		tr:      tr,
		met:     met,
		opts:    opts,
		queries: make(map[wire.QueryID]*query),
		clients: make(map[[2]string]client),
		dbCache: make(map[string]*dbEntry),
	}
	s.fetch = *webserver.NewFetcher(tr, s.self)
	s.eval = nodeproc.Evaluator{
		Site:   s,
		Origin: s.self,
		Node: nodeproc.Visitor{Log: nodeproc.NewLogTable(opts.Dedup), StrictDeadEnds: opts.StrictDeadEnds,
			MaxHops: opts.MaxHops, Journal: opts.Journal},
		NoBatch: opts.NoBatch,
		Spans:   opts.Journal != nil,
	}
	if opts.CacheDBs && opts.DBCacheEntries > 0 {
		s.dbLRU = list.New()
		s.dbPos = make(map[string]*list.Element)
	}
	// The scheduler's activation hook feeds the QueueHighWater counter;
	// any hook the caller installed still runs.
	schedOpts := opts.Sched
	userHook := schedOpts.OnActivate
	schedOpts.OnActivate = func() {
		met.QueueHighWater.Add(1)
		if userHook != nil {
			userHook()
		}
	}
	s.queue = sched.New[item](schedOpts)
	// The seeded randomness draws retry-backoff jitter, so chaos runs
	// replay deterministically.
	s.out = newSender(tr, s.self, met, opts.Journal, opts.Cluster, opts.Retry,
		newLockedRand(opts.Seed, seedName(site, opts.Replica)))
	return s
}

// seedName derives the per-server jitter-seed name: the bare site for
// replica 0 (the seed's schedule, unchanged) and the replica endpoint
// above, so two replicas of one site never share a jitter schedule.
func seedName(site string, replica int) string {
	if replica <= 0 {
		return site
	}
	return cluster.ReplicaEndpoint(site, replica)
}

// Site returns the site this server runs at.
func (s *Server) Site() string { return s.site }

// Self returns the endpoint this server listens on (the site's classic
// query endpoint, or its replica endpoint when Options.Replica > 0).
func (s *Server) Self() string { return s.self }

// LogTable exposes the Node-query Log Table (for tests and experiments).
func (s *Server) LogTable() *nodeproc.LogTable { return s.eval.Node.Log }

// Start begins accepting and processing clones. It returns immediately.
func (s *Server) Start() error {
	if s.opts.Store.Enabled() && s.store == nil && s.docs != nil {
		// Open (or first build) the persistent site store before taking
		// any traffic, so every local Database Constructor run can serve
		// from pages instead of parsing. A proxy hosts nothing to store.
		if err := s.openStore(); err != nil {
			return err
		}
	}
	ln, err := s.tr.Listen(s.self)
	if err != nil {
		return err
	}
	if cl := s.opts.Cluster; cl != nil {
		// Register (re)announces this replica and bumps its incarnation,
		// stamped on every result frame; set before any worker starts so
		// no frame leaves with the previous incarnation.
		s.inc = cl.Register(s.self)
	}
	s.mu.Lock()
	s.stop = make(chan struct{})
	stop := s.stop
	// Query Receiver. The sender may pool a connection and stream many
	// frames over it, so each is decoded with a persistent session.
	s.serving = netsim.Serve(ln, func(conn net.Conn) { s.receive(wire.NewFramed(conn)) })
	s.mu.Unlock()

	// Query Processor(s). The paper's design is a single thread draining
	// the queue sequentially; Options.Workers > 1 is the concurrency
	// ablation.
	workers := s.opts.Workers
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			var b nodeproc.Batch // this worker's, reused clone to clone
			for {
				it, ok := s.queue.Pop()
				if !ok {
					return
				}
				s.met.QueueDepth.Add(-1)
				s.handle(it.c, it.q, &b)
				// Yield between clone batches. A backlogged processor is
				// CPU-bound; without this, on a small GOMAXPROCS every
				// goroutine the batch made runnable (result collectors,
				// waiting clients) sits out a full preemption slice
				// before it runs, which costs every in-flight query tens
				// of milliseconds of completion latency per batch.
				runtime.Gosched()
			}
		}()
	}

	if s.opts.LogPurgeAge > 0 && s.opts.LogPurgeEvery > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(s.opts.LogPurgeEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.sweep(s.opts.LogPurgeAge)
				case <-stop:
					return
				}
			}
		}()
	}
	return nil
}

// Stop shuts the server down, discarding queued clones.
func (s *Server) Stop() {
	// Closing the sender first wakes workers pausing between retries.
	s.out.Close()
	s.mu.Lock()
	serving := s.serving
	s.serving = nil
	if s.stop != nil {
		close(s.stop)
		s.stop = nil
	}
	s.mu.Unlock()
	if serving != nil {
		serving.Close()
	}
	s.queue.Close()
	if serving != nil {
		serving.Wait()
	}
	s.wg.Wait()
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}

// Enqueue hands a clone to the Query Processor directly, bypassing the
// network: used for same-site forwarding (a clone is only "explicitly
// forwarded" when the next node lives on a different site) and by tests.
func (s *Server) Enqueue(c *wire.CloneMsg) { s.admit(c) }

// IdleConns returns how many idle outbound connections the server's pool
// holds — to peers and to user-site collectors. A long-lived deployment
// should see it settle.
func (s *Server) IdleConns() int { return s.out.pool.IdleCount() }

// SchedStats returns the scheduler queue's counters: current and peak
// depth, queued flows, sheds and watermark activations.
func (s *Server) SchedStats() sched.Stats { return s.queue.Stats() }

// admit offers one clone to the scheduler. Admission control may refuse
// it: a fresh root dispatch (hop 0, query not already queued here)
// arriving over the high watermark is retired to the user-site with the
// typed SHED fate instead of being queued. Forwarded clones of
// admitted queries and local re-enqueues are never refused — in-flight
// work always completes, keeping CHT accounting sound under load.
func (s *Server) admit(c *wire.CloneMsg) {
	s.qmu.Lock()
	q := s.record(c.ID)
	q.active++
	s.qmu.Unlock()
	switch s.queue.Push(q.flow, c.Budget.Weight, c.Hops == 0, item{c, q}) {
	case sched.Admitted:
		s.met.QueueDepth.Add(1)
	case sched.Shed:
		s.release(q, 0)
		s.retireAll(c, wire.FateShed, "over high watermark")
	case sched.Closed:
		// Server stopping: the clone is discarded (seed semantics); the
		// user-site's reaper retires whatever entries it had announced.
		s.release(q, 0)
	}
}

// item is one queued clone with the record of its query.
type item struct {
	c *wire.CloneMsg
	q *query
}

// receive drains clone and stop messages from one connection.
func (s *Server) receive(conn net.Conn) {
	for {
		msg, err := wire.Receive(conn)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.CloneMsg:
			s.admit(m)
		case *wire.StopMsg:
			s.stopQuery(m.ID)
		case *wire.WatchMsg:
			s.handleWatch(m)
		default:
			return
		}
	}
}

// InvalidateDocs is the site-local change-detection hook: after the web
// mutates, the deployment reports which of this site's documents changed
// content only (edited) and which changed link structure or vanished
// (rewired). Invalidation is entry-level — the touched retained
// databases are evicted, the touched store documents and their index
// postings marked stale — never a cache flush or a store rebuild. Every
// standing watch is then sent one DeltaMsg carrying the split.
func (s *Server) InvalidateDocs(edited, rewired []string) {
	touch := func(urls []string, detail string) {
		for _, u := range urls {
			s.dbMu.Lock()
			if _, ok := s.dbCache[u]; ok {
				delete(s.dbCache, u)
				if el, lok := s.dbPos[u]; lok {
					s.dbLRU.Remove(el)
					delete(s.dbPos, u)
				}
			}
			s.dbMu.Unlock()
			if s.store != nil {
				s.store.Invalidate(u)
			}
			s.met.DocsInvalidated.Add(1)
			if s.opts.Journal != nil {
				s.opts.Journal.Append(trace.Event{Kind: trace.Invalidate, Node: u, Detail: detail})
			}
		}
	}
	touch(edited, "edited")
	touch(rewired, "rewired")

	var deltas []*wire.DeltaMsg
	s.qmu.Lock()
	for id, q := range s.queries {
		if q.watching {
			q.deltas++
			deltas = append(deltas, &wire.DeltaMsg{
				ID: id, Site: s.site, Seq: q.deltas,
				Edited: edited, Rewired: rewired,
			})
		}
	}
	s.qmu.Unlock()
	for _, msg := range deltas {
		if s.out.Send(msg.ID.Site, msg) == nil {
			s.met.DeltasSent.Add(1)
			if s.opts.Journal != nil {
				s.opts.Journal.Append(trace.Event{Query: msg.ID.String(), Kind: trace.Delta, Detail: msg.ID.Site})
			}
		}
	}
}

// jot appends one causal trace event for clone c to the site journal.
func (s *Server) jot(c *wire.CloneMsg, kind trace.Kind, detail string) {
	s.opts.Journal.AppendClone(c, kind, "", c.State(), detail)
}

// traced reports whether span context should ride on clones spawned from
// c: either this server journals, or the arriving clone already carries
// a span (an untraced relay must not break the causal chain).
func (s *Server) traced(c *wire.CloneMsg) bool {
	return s.opts.Journal != nil || !c.Span.IsZero()
}

// handle processes one received clone message of query q on the
// worker's batch b: the process_query algorithm of Figure 3.
func (s *Server) handle(c *wire.CloneMsg, q *query, b *nodeproc.Batch) {
	now := time.Now().UnixNano()
	defer s.release(q, now)
	if s.opts.Journal != nil {
		s.jot(c, trace.Arrive, strconv.Itoa(len(c.Dest))+" dests")
	}
	// A clone whose deadline passed in transit, or whose user-site
	// broadcast an active stop (Budget.FirstN satisfied, or the query
	// cancelled), is not evaluated and spawns nothing: it retires typed.
	if c.Budget.ExpiredAt(now) {
		s.retireAll(c, wire.FateExpired, "deadline passed")
		return
	}
	if q.stopped.Load() {
		s.retireAll(c, wire.FateStopped, "active stop")
		return
	}
	if err := b.Begin(&s.eval, c, q.log, &q.serial); err != nil {
		// A malformed clone cannot be processed here or anywhere: the
		// user-site writes it off, declaring the loss.
		s.bounce(c, wire.BounceMalformed, s.site)
		return
	}
	defer b.Reset()
	for _, dest := range c.Dest {
		b.Add(dest)
	}
	s.met.book(b.Finish())

	// Second stop check: a StopMsg lands on the receive path, not the
	// worker queue, so it often arrives while the frontier clone is mid
	// evaluation (site databases take milliseconds to build; the stop
	// round-trip takes microseconds). Too late to skip the work, still
	// early enough to cut the traversal — drop the children before any
	// of them is announced to the CHT and retire as stopped.
	if q.stopped.Load() {
		s.retireAll(c, wire.FateStopped, "active stop")
		return
	}

	// Span links of the clones about to be forwarded, echoed on the
	// result message so the user-site can stitch the causal tree.
	var spawned []wire.SpanLink
	if s.traced(c) {
		for _, oc := range b.Out {
			spawned = append(spawned, wire.SpanLink{Span: oc.Msg.Span, Site: oc.Site})
		}
	}

	// Dispatch results and CHT updates to the user-site first; only after
	// a successful dispatch are clones forwarded (Figure 3, lines 17–20).
	// A failed dispatch is the passive termination signal: the query is
	// purged locally.
	if !s.dispatchResults(c, b.Updates, b.Tables, spawned) {
		s.met.Terminated.Add(1)
		s.jot(c, trace.Terminate, "result dispatch failed")
		return
	}
	// The Result jot lives here, not in dispatchResults: retireAll also
	// dispatches, and its typed reports book their own fates.
	if s.opts.Journal != nil {
		s.jot(c, trace.Result, strconv.Itoa(len(b.Updates))+" updates, "+strconv.Itoa(len(b.Tables))+" tables")
	}
	s.forwardAll(b.Out)
}

// NextSpan numbers the next trace span this server opens.
func (s *Server) NextSpan() int64 { return s.seq.Add(1) }

// dbEntry is one node's database build. The worker that creates the
// entry runs the Database Constructor; everyone else waits on built, so
// concurrent requests for one node coalesce into a single build. ready
// tells a finished build (a cache hit) from one still running (a
// coalesced wait) without blocking.
type dbEntry struct {
	built sync.WaitGroup
	ready atomic.Bool
	// joined counts the LoadDBs that joined an unretained build, each
	// under dbMu while the entry was in dbCache: the builder retains one
	// reference to the pooled DB for each before it reports ready.
	joined atomic.Int32
	db     *relmodel.DB
	err    error
}

// LoadDB returns the node's virtual relations: the paper's Database
// Constructor, building per evaluation into pooled memory and purging
// once the caller Releases the DB, or — with Options.CacheDBs, the
// paper's footnote-3 variant — retaining the constructed database, in
// memory of its own, for repeat visits. Concurrent requests for one node
// coalesce into a single build (even without CacheDBs, where the entry
// lives only as long as the build); each caller holds a reference.
func (s *Server) LoadDB(node string) (*relmodel.DB, error) {
	retain := s.opts.CacheDBs
	s.dbMu.RLock()
	e := s.dbCache[node]
	if e != nil && !retain {
		e.joined.Add(1)
	}
	s.dbMu.RUnlock()
	if e == nil {
		s.dbMu.Lock()
		if e = s.dbCache[node]; e == nil {
			e = &dbEntry{}
			e.built.Add(1)
			s.dbCache[node] = e
			s.dbMu.Unlock()
			e.db, e.err = s.buildDB(node)
			if e.err != nil || !retain {
				// Errors are never cached, and without CacheDBs the entry
				// existed only to coalesce the in-flight build. Once it is
				// out of dbCache nobody joins it, so joined is final.
				s.dbMu.Lock()
				if s.dbCache[node] == e {
					delete(s.dbCache, node)
				}
				s.dbMu.Unlock()
				if e.err == nil {
					for n := e.joined.Load(); n > 0; n-- {
						e.db.Retain()
					}
				}
			} else {
				s.noteDBUse(node)
			}
			e.ready.Store(true)
			e.built.Done()
			return e.db, e.err
		}
		if !retain {
			e.joined.Add(1)
		}
		s.dbMu.Unlock()
	}
	if e.ready.Load() {
		if retain && e.err == nil {
			s.met.DBCacheHits.Add(1)
			s.noteDBUse(node)
		}
	} else {
		s.met.DBBuildCoalesced.Add(1)
		e.built.Wait()
	}
	return e.db, e.err
}

// buildDB loads and parses the node's document: one Database Constructor
// run. A node this site does not host — every node the user-site's proxy
// evaluates — is downloaded from its home document host.
func (s *Server) buildDB(node string) (*relmodel.DB, error) {
	var content []byte
	var err error
	if webgraph.Host(node) != s.site {
		content, err = s.download(node)
	} else if s.store != nil {
		// Local node with the persistent store: assemble the database
		// from slotted pages through the buffer pool — no fetch, no
		// parse, and the text oracle rides along for contains folding.
		// A mutated (stale) or freshly born (unknown) document instead
		// takes the live read-through below: fetch + parse the current
		// web, leaving every untouched store entry served from pages.
		db, serr := s.store.DB(node)
		if serr == nil || !(errors.Is(serr, store.ErrStale) || errors.Is(serr, store.ErrUnknownDoc)) {
			return db, serr
		}
		content, err = s.docs.Get(node)
	} else {
		content, err = s.docs.Get(node)
	}
	if err != nil {
		return nil, err
	}
	build := nodeproc.BuildDB
	if s.opts.CacheDBs {
		build = nodeproc.BuildOwnedDB // a retained entry outlives its node-query
	}
	db, err := build(node, content)
	if err != nil {
		return nil, err
	}
	s.met.DocsParsed.Add(1)
	s.met.DocBytes.Add(int64(len(content)))
	return db, nil
}

// download fetches a document hosted on another site, retried under
// Options.Retry like any remote send, and books the transfer.
func (s *Server) download(node string) ([]byte, error) {
	pol := s.opts.Retry
	content, err := s.fetch.Get(node)
	for i := 1; err != nil && i < pol.attempts(); i++ {
		s.met.Retries.Add(1)
		if !s.out.backoff(i) {
			break
		}
		content, err = s.fetch.Get(node)
	}
	if err != nil {
		return nil, err
	}
	// Book the transfer at its encoded frame size: what actually crossed
	// the wire.
	s.met.ShipDataBytes.Add(int64(wire.EncodedSize(&wire.FetchResp{URL: node, Content: content})))
	return content, nil
}

// dispatchResults sends the processed clone's results and CHT updates to
// the user-site's Result Collector in one frame, retrying per
// Options.Retry (paper Figure 3, lines 17–20). It reports success;
// exhausted failure means the user-site is gone (query cancelled or
// unreachable) and the query must be purged — stranded CHT entries are
// then the user-site reaper's problem, not ours.
func (s *Server) dispatchResults(c *wire.CloneMsg, updates []wire.CHTUpdate, tables []wire.NodeTable, spawned []wire.SpanLink) bool {
	if len(updates) == 0 && len(tables) == 0 {
		return true
	}
	msg := &wire.ResultMsg{ID: c.ID, Updates: updates, Tables: tables}
	if s.traced(c) {
		msg.Span, msg.Site, msg.Hop, msg.Spawned = c.Span, s.site, c.Hops, spawned
	}
	return s.sendResult(msg) == nil
}

// sendResult ships one result frame to its query's collector. The frame
// is booked before it goes out and taken back if the send fails: booked
// after the send, the count trails what the collector has already seen —
// the rule wire's writeFrame keeps for the fabric's books.
func (s *Server) sendResult(msg *wire.ResultMsg) error {
	s.stampReplica(msg)
	s.met.ResultMsgs.Add(1)
	err := s.out.Send(msg.ID.Site, msg)
	if err != nil {
		s.met.ResultMsgs.Add(-1)
	}
	return err
}

// fanoutWorkers bounds the per-clone forward worker group.
const fanoutWorkers = 8

// forwardAll ships the processed clone's outgoing clones in their
// deterministic order: destinations are sorted and the Forward jots
// appended serially (so per-message trace ordering is stable), same-site
// clones go straight onto the local queue, and the remote clones are then
// shipped through a bounded worker group so one slow peer does not
// serialize the whole fan-out. forwardAll returns only when every remote
// send has resolved, preserving the "clone fully processed before the
// next queue item" property per worker. CHT bookkeeping is unaffected
// by the concurrency: every entry was announced by dispatchResults before
// any forward, and each remote clone still produces exactly one fate
// (forwarded, queued, or bounced) regardless of completion order.
func (s *Server) forwardAll(outs []*nodeproc.Out) {
	var remote []*nodeproc.Out
	for _, oc := range outs {
		slices.SortFunc(oc.Msg.Dest, byURL)
		if oc.Site == s.site {
			s.jot(oc.Msg, trace.Forward, oc.Site)
			s.met.LocalClones.Add(1)
			s.Enqueue(oc.Msg)
			continue
		}
		s.jot(oc.Msg, trace.Forward, oc.Site)
		remote = append(remote, oc)
	}
	if len(remote) == 0 {
		return
	}
	start := time.Now()
	if len(remote) == 1 {
		s.forwardRemote(remote[0])
	} else {
		workers := min(fanoutWorkers, len(remote))
		ch := make(chan *nodeproc.Out)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for oc := range ch {
					s.forwardRemote(oc)
				}
			}()
		}
		for _, oc := range remote {
			ch <- oc
		}
		close(ch)
		wg.Wait()
	}
	s.met.ForwardNanos.Add(time.Since(start).Nanoseconds())
}

// byURL orders destinations by URL; a clone lists a URL once.
func byURL(a, b wire.DestNode) int { return strings.Compare(a.URL, b.URL) }

// stampReplica marks a result frame with this replica's endpoint and
// incarnation so the user-site can reject replies that predate a
// restart. Unclustered servers leave both fields zero (frames are
// byte-identical to the seed's).
func (s *Server) stampReplica(msg *wire.ResultMsg) {
	if s.inc > 0 {
		msg.From, msg.Inc = s.self, s.inc
	}
}

// forwardRemote ships one outgoing clone over the transport. A clone
// that cannot be forwarded goes back to the user-site, which decides its
// fate. The user-site's proxy (no DocSource) is its own bounce target: a
// clone it cannot forward goes back on its own queue, to be evaluated on
// downloaded documents.
func (s *Server) forwardRemote(oc *nodeproc.Out) {
	_, _, err := s.out.SendSite(oc.Site, oc.Msg, nil)
	if err == nil {
		s.met.ClonesForwarded.Add(1)
		return
	}
	reason := bounceReason(err, s.opts.Retry)
	if s.docs == nil {
		s.jot(oc.Msg, trace.Bounce, reason)
		s.met.LocalClones.Add(1)
		s.Enqueue(oc.Msg)
		return
	}
	s.bounce(oc.Msg, reason, oc.Site)
}

// bounceReason classifies a failed forward: a plain connection refusal
// with no retry policy is the paper's §7.1 "site runs no query server"
// case; anything that survived a retry loop (or failed mid-transfer) is
// the fault-tolerance degraded mode.
func bounceReason(err error, pol RetryPolicy) string {
	if pol.attempts() <= 1 && errors.Is(err, netsim.ErrRefused) {
		return wire.BounceNoServer
	}
	return wire.BounceRetryExhausted
}

// bounce returns a clone this server could not deliver to site (or could
// not process at all) to the user-site, which hands it to its proxy or
// writes it off. The clone's CHT entries stay live until then. Like a
// result frame (sendResult), the bounce is booked before it goes out and
// taken back if the send fails. A failed bounce means the user-site is
// unreachable too: the forward failure is booked and the entries are
// left to its reaper, as after a failed result dispatch.
func (s *Server) bounce(c *wire.CloneMsg, reason, site string) {
	s.jot(c, trace.Bounce, reason)
	s.met.Bounced.Add(1)
	if s.out.Send(c.ID.Site, &wire.BounceMsg{Clone: c, Reason: reason}) != nil {
		s.met.Bounced.Add(-1)
		s.met.ForwardFailed.Add(1)
		s.jot(c, trace.ForwardFailed, site)
	}
}

// retireAll terminates a clone that will never be processed — shed over
// the high watermark, past its wire-carried deadline, or of an actively
// stopped query — and dispatches the CHT retirements of all its
// destinations in one result frame typed by that fate. The user-site
// books the span's fate as shed, expired or stopped, not processed, and
// its CHT still balances: the budget and active-cancel analogs of the
// paper's passive termination, but accounted, not silent.
func (s *Server) retireAll(c *wire.CloneMsg, fate wire.Fate, detail string) {
	switch fate {
	case wire.FateShed:
		s.met.Shed.Add(1)
		s.jot(c, trace.Shed, detail)
	case wire.FateExpired:
		s.met.BudgetExpired.Add(1)
		s.jot(c, trace.Expire, detail)
	case wire.FateStopped:
		s.met.Stopped.Add(1)
		s.jot(c, trace.Stop, detail)
	}
	if len(c.Dest) == 0 {
		return
	}
	msg := &wire.ResultMsg{ID: c.ID, Updates: c.Retirements(), Fate: fate}
	if s.traced(c) {
		msg.Span, msg.Site, msg.Hop = c.Span, s.site, c.Hops
	}
	// A failed dispatch means the user-site is gone; its reaper owns the
	// stranded entries (same semantics as a failed result dispatch).
	s.sendResult(msg)
}
