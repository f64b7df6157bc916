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
	"sort"
	"strconv"
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
	// Hybrid enables the paper's Section 7.1 migration path: a clone that
	// cannot be forwarded (its destination site runs no query server) is
	// bounced back to the user-site, which hands it to its proxy — a
	// Server with no DocSource — to be evaluated on downloaded documents.
	// Without Hybrid such clones are simply retired.
	Hybrid bool
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
	// LogPurgeAge and LogPurgeEvery enable the paper's periodic log-table
	// purge when both are positive.
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
	// Planner configures the cost-based distributed planner: plan-
	// fragment pushdown, statistics piggybacking, and the per-edge
	// ship-query-vs-ship-data decision. Zero disables all three.
	Planner PlannerOptions
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
	// unsub detaches the pool-eviction health subscription on Stop.
	unsub func()

	queue *sched.Queue[*wire.CloneMsg]
	// rng is the server's private randomness (retry-backoff jitter),
	// seeded from Options.Seed so chaos runs replay deterministically.
	rng *lockedRand
	// seq numbers the trace spans this server opens (wire.SpanID).
	seq atomic.Int64
	// serials numbers the CHT entries this server creates, per query.
	serials *serialTable

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

	// pool reuses connections to frequently dialed peers (other sites'
	// query servers, the user-site's result collectors).
	pool *netsim.Pool

	// peerStats holds the per-site statistics learned from piggybacked
	// clone hints and from ship-data fetches; own-site statistics come
	// straight from the metrics counters. It only lives under
	// opts.Planner.Enabled.
	statMu    sync.Mutex
	peerStats map[string]wire.SiteStat
	// fetch downloads the documents of nodes this site does not host.
	fetch webserver.Fetcher

	// stoppedQ records queries whose user-site broadcast an active
	// StopMsg (Budget.FirstN satisfied, or the submitting context was
	// cancelled); their queued clones terminate with the typed STOPPED
	// retirement instead of being evaluated.
	stopMu   sync.Mutex
	stoppedQ map[wire.QueryID]time.Time

	// watches is the standing continuous-query registry: watch QueryID
	// string → registration. A registered watch receives one DeltaMsg
	// (with this site's per-watch monotonic Seq) for every local batch of
	// web mutations, until the user-site cancels it.
	watchMu sync.Mutex
	watches map[string]*watchReg

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]bool // accepted connections, open for the sender's pool
	stop  chan struct{}
	wg    sync.WaitGroup
}

// New returns a server for site, reading documents from docs and speaking
// over tr. met may be shared across servers; it must not be nil. A nil
// docs builds the user-site's proxy (see DocSource).
func New(site string, docs DocSource, tr netsim.Transport, met *Metrics, opts Options) *Server {
	s := &Server{
		site:     site,
		self:     cluster.ReplicaEndpoint(site, opts.Replica),
		docs:     docs,
		tr:       tr,
		met:      met,
		opts:     opts,
		rng:      newLockedRand(opts.Seed, seedName(site, opts.Replica)),
		serials:  newSerialTable(serialSlots),
		dbCache:  make(map[string]*dbEntry),
		stoppedQ: make(map[wire.QueryID]time.Time),
	}
	s.fetch = *webserver.NewFetcher(tr, s.self)
	s.eval = nodeproc.Evaluator{
		Site:   s,
		Origin: s.self,
		Node: nodeproc.Visitor{Log: nodeproc.NewLogTable(opts.Dedup), StrictDeadEnds: opts.StrictDeadEnds,
			MaxHops: opts.MaxHops, Journal: opts.Journal},
		NoBatch:  opts.NoBatch,
		Pushdown: opts.Planner.Enabled,
		Spans:    opts.Journal != nil,
	}
	if opts.Planner.Enabled {
		s.peerStats = make(map[string]wire.SiteStat)
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
	s.queue = sched.New[*wire.CloneMsg](schedOpts)
	s.pool = netsim.NewPool(tr, s.self, netsim.PoolOptions{
		// Pooled connections carry many frames, so attach a persistent
		// wire session: its intern tables then amortize across a
		// connection's lifetime.
		Wrap: func(c net.Conn) net.Conn { return wire.NewFramed(c) },
	})
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
		// Evict idle connections to a replica the moment the health
		// layer declares it down, instead of waiting for the next send
		// on a dead socket to fail.
		s.unsub = cl.Subscribe(func(ep string, st cluster.State) {
			if st == cluster.Down {
				s.pool.EvictPeer(ep)
			}
		})
	}
	s.mu.Lock()
	s.ln = ln
	s.conns = make(map[net.Conn]bool)
	s.stop = make(chan struct{})
	stop := s.stop
	s.mu.Unlock()

	// Query Receiver. Accepted connections are tracked so Stop can close
	// them: senders pool their connections across messages now, so a
	// receive loop no longer ends with each message.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.conns == nil {
				s.mu.Unlock()
				conn.Close()
				continue
			}
			s.conns[conn] = true
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() {
					s.mu.Lock()
					delete(s.conns, conn)
					s.mu.Unlock()
				}()
				// The sender may pool this connection and stream many
				// frames over it, so decode with a persistent session.
				s.receive(wire.NewFramed(conn))
			}()
		}
	}()

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
				clone, ok := s.queue.Pop()
				if !ok {
					return
				}
				s.met.QueueDepth.Add(-1)
				s.handle(clone, &b)
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
					s.eval.Node.Log.Purge(s.opts.LogPurgeAge)
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
	if s.unsub != nil {
		s.unsub()
		s.unsub = nil
	}
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	conns := s.conns
	s.conns = nil
	if s.stop != nil {
		close(s.stop)
		s.stop = nil
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Close accepted connections so receive loops exit: their senders
	// hold them open in pools between messages.
	for conn := range conns {
		conn.Close()
	}
	s.queue.Close()
	s.wg.Wait()
	s.pool.Close()
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
func (s *Server) IdleConns() int { return s.pool.IdleCount() }

// SchedStats returns the scheduler queue's counters: current and peak
// depth, queued flows, sheds and watermark activations.
func (s *Server) SchedStats() sched.Stats { return s.queue.Stats() }

// Queued returns how many clones of query id wait in the scheduler queue.
func (s *Server) Queued(id wire.QueryID) int { return s.queue.Pending(id.String()) }

// admit offers one clone to the scheduler. Admission control may refuse
// it: a fresh root dispatch (hop 0, query not already queued here)
// arriving over the high watermark is returned to the user-site with a
// typed SHED message instead of being queued. Forwarded clones of
// admitted queries and local re-enqueues are never refused — in-flight
// work always completes, keeping CHT accounting sound under load.
func (s *Server) admit(c *wire.CloneMsg) {
	switch s.queue.Push(c.ID.String(), c.Budget.Weight, c.Hops == 0, c) {
	case sched.Admitted:
		s.met.QueueDepth.Add(1)
	case sched.Shed:
		s.shedClone(c)
	case sched.Closed:
		// Server stopping: the clone is discarded (seed semantics); the
		// user-site's reaper retires whatever entries it had announced.
	}
}

// shedClone returns a refused clone to the user-site with the typed
// SHED message, so its CHT entries retire and the caller sees the
// refusal (Query.Shed) rather than a hang. Best-effort: if even the
// user-site is unreachable, the reaper owns the stranded entries.
func (s *Server) shedClone(c *wire.CloneMsg) {
	s.met.Shed.Add(1)
	s.jot(c, trace.Shed, "over high watermark")
	s.send(c.ID.Site, &wire.ShedMsg{Clone: c, Site: s.site})
}

// receive drains clone and stop messages from one connection.
func (s *Server) receive(conn net.Conn) {
	defer conn.Close()
	for {
		msg, err := wire.Receive(conn)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.CloneMsg:
			s.admit(m)
		case *wire.StopMsg:
			s.markStopped(m.ID)
		case *wire.WatchMsg:
			s.handleWatch(m)
		default:
			return
		}
	}
}

// watchReg is one standing watch: the collector's identity plus the
// per-watch monotonic delta sequence this site stamps on notifications.
type watchReg struct {
	id  wire.QueryID
	seq int64
}

// handleWatch registers or cancels a standing watch. Registration is
// idempotent (a re-register keeps the existing sequence, so a collector
// that retries never sees Seq restart).
func (s *Server) handleWatch(m *wire.WatchMsg) {
	if !m.Applies() {
		return
	}
	key := m.ID.String()
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if m.Cancel {
		delete(s.watches, key)
		return
	}
	if s.watches == nil {
		s.watches = make(map[string]*watchReg)
	}
	if _, ok := s.watches[key]; !ok {
		s.watches[key] = &watchReg{id: m.ID}
		s.met.WatchesRegistered.Add(1)
	}
}

// Watching reports whether the standing watch id is registered at this
// site. Registrations arrive unacknowledged; an in-process deployment
// asks before it lets a mutation loose on a new watch.
func (s *Server) Watching(id wire.QueryID) bool {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	_, ok := s.watches[id.String()]
	return ok
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

	s.watchMu.Lock()
	regs := make([]*wire.DeltaMsg, 0, len(s.watches))
	for _, w := range s.watches {
		w.seq++
		regs = append(regs, &wire.DeltaMsg{
			Version: wire.WatchVersion, ID: w.id, Site: s.site, Seq: w.seq,
			Edited: edited, Rewired: rewired,
		})
	}
	s.watchMu.Unlock()
	for _, msg := range regs {
		if s.send(msg.ID.Site, msg) == nil {
			s.met.DeltasSent.Add(1)
			if s.opts.Journal != nil {
				s.opts.Journal.Append(trace.Event{Query: msg.ID.String(), Kind: trace.Delta, Detail: msg.ID.Site})
			}
		}
	}
}

// stopTTL bounds how long a stopped query stays in the registry. Clones
// of a stopped query stop arriving once the stop has propagated (every
// live site retires rather than forwards), so the registry only needs to
// outlive the query's in-flight tail.
const stopTTL = 2 * time.Minute

// markStopped records an active-termination broadcast for one query.
func (s *Server) markStopped(id wire.QueryID) {
	now := time.Now()
	s.stopMu.Lock()
	if len(s.stoppedQ) > 128 {
		for k, at := range s.stoppedQ {
			if now.Sub(at) >= stopTTL {
				delete(s.stoppedQ, k)
			}
		}
	}
	s.stoppedQ[id] = now
	s.stopMu.Unlock()
}

// isStopped reports whether the query was actively stopped (and the stop
// is still fresh).
func (s *Server) isStopped(id wire.QueryID) bool {
	s.stopMu.Lock()
	at, ok := s.stoppedQ[id]
	if ok && time.Since(at) >= stopTTL {
		delete(s.stoppedQ, id)
		ok = false
	}
	s.stopMu.Unlock()
	return ok
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

// handle processes one received clone message on the worker's batch b:
// the process_query algorithm of Figure 3.
func (s *Server) handle(c *wire.CloneMsg, b *nodeproc.Batch) {
	if s.opts.Journal != nil {
		s.jot(c, trace.Arrive, strconv.Itoa(len(c.Dest))+" dests")
	}
	if c.Budget.ExpiredAt(time.Now().UnixNano()) {
		// The query's deadline passed in transit: the typed EXPIRED
		// terminate. No evaluation, no children — the entries retire so
		// the CHT still balances and the trace fate is exact.
		s.expire(c, "deadline passed")
		return
	}
	if s.isStopped(c.ID) {
		// The user-site broadcast an active stop (Budget.FirstN satisfied,
		// or the query was cancelled): the typed STOPPED terminate. Like
		// expiry, no evaluation and no children — the entries retire so
		// the CHT drains and the trace books the span as stopped.
		s.stopClone(c)
		return
	}
	if s.opts.Planner.Enabled {
		s.absorbHints(c.Hints)
	}
	if err := b.Begin(&s.eval, c); err != nil {
		// A malformed clone cannot be processed, but its CHT entries must
		// still be retired or the user-site would wait forever.
		s.retireAll(c, retirePlain)
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
	if s.isStopped(c.ID) {
		s.stopClone(c)
		return
	}

	// Statistics hints ride only when the planner runs here, keeping the
	// classic wire profile otherwise.
	if s.opts.Planner.Enabled && len(b.Out) > 0 {
		hints := s.hintsFor()
		for _, oc := range b.Out {
			oc.Msg.Hints = hints
		}
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
	// dispatches (bookkeeping for clones that failed), and those reports
	// must not overwrite the span's forward-failed fate.
	if s.opts.Journal != nil {
		s.jot(c, trace.Result, strconv.Itoa(len(b.Updates))+" updates, "+strconv.Itoa(len(b.Tables))+" tables")
	}
	s.forwardAll(b.Out)
}

// expire terminates a clone that exceeded its wire-carried budget: its
// CHT entries retire with the typed EXPIRED report so the user-site
// books the span's fate as expired, not processed — the budget analog
// of the paper's passive termination, but accounted, not silent.
func (s *Server) expire(c *wire.CloneMsg, reason string) {
	s.met.BudgetExpired.Add(1)
	s.jot(c, trace.Expire, reason)
	s.retireAll(c, retireExpired)
}

// stopClone terminates a clone of an actively stopped query: the typed
// STOPPED retirement, the active-cancel analog of expire.
func (s *Server) stopClone(c *wire.CloneMsg) {
	s.met.Stopped.Add(1)
	s.jot(c, trace.Stop, "active stop")
	s.retireAll(c, retireStopped)
}

// NextSerial numbers the next CHT entry this server creates for query id.
func (s *Server) NextSerial(id wire.QueryID) int64 { return s.serials.next(id) }

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
	db    *relmodel.DB
	err   error
}

// LoadDB returns the node's virtual relations: the paper's Database
// Constructor, building per evaluation and purging immediately, or — with
// Options.CacheDBs, the paper's footnote-3 variant — retaining the
// constructed database for repeat visits. Concurrent requests for one
// node coalesce into a single build (even without CacheDBs, where the
// entry lives only as long as the build).
func (s *Server) LoadDB(node string) (*relmodel.DB, error) {
	s.dbMu.RLock()
	e := s.dbCache[node]
	s.dbMu.RUnlock()
	if e == nil {
		s.dbMu.Lock()
		if e = s.dbCache[node]; e == nil {
			e = &dbEntry{}
			e.built.Add(1)
			s.dbCache[node] = e
			s.dbMu.Unlock()
			e.db, e.err = s.buildDB(node)
			e.ready.Store(true)
			e.built.Done()
			if e.err != nil || !s.opts.CacheDBs {
				// Errors are never cached, and without CacheDBs the entry
				// existed only to coalesce the in-flight build.
				s.dbMu.Lock()
				if s.dbCache[node] == e {
					delete(s.dbCache, node)
				}
				s.dbMu.Unlock()
			} else {
				s.noteDBUse(node)
			}
			return e.db, e.err
		}
		s.dbMu.Unlock()
	}
	if e.ready.Load() {
		if s.opts.CacheDBs && e.err == nil {
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
// run. A node this site does not host is downloaded from its home
// document host — the ship-data half of the cost model, reached when
// forwardAll kept the clone here instead of shipping it, and every node
// the user-site's proxy evaluates.
func (s *Server) buildDB(node string) (*relmodel.DB, error) {
	var content []byte
	var err error
	if host := webgraph.Host(node); host != s.site {
		content, err = s.download(node, host)
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
	db, err := nodeproc.BuildDB(node, content)
	if err != nil {
		return nil, err
	}
	s.met.DocsParsed.Add(1)
	s.met.DocBytes.Add(int64(len(content)))
	return db, nil
}

// download fetches a document hosted on another site, retried under
// Options.Retry like any remote send, and books the transfer and (under
// the planner) the peer's document size.
func (s *Server) download(node, host string) ([]byte, error) {
	pol := s.opts.Retry
	content, err := s.fetch.Get(node)
	for i := 1; err != nil && i < pol.attempts(); i++ {
		s.met.Retries.Add(1)
		if !s.pause(pol.backoff(i, s.rng)) {
			break
		}
		content, err = s.fetch.Get(node)
	}
	if err != nil {
		return nil, err
	}
	// Book the transfer at its encoded frame size (what actually crossed
	// the wire), while the peer's document statistic stays raw content
	// bytes — the cost model's avgDocBytes numerator.
	s.met.ShipDataBytes.Add(int64(wire.EncodedSize(&wire.FetchResp{URL: node, Content: content})))
	if s.peerStats != nil {
		s.recordPeerDoc(host, int64(len(content)))
	}
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
	// Piggyback this site's statistics on the frame (Section 3.2 style:
	// ride data that is going to the user-site anyway) so the user-site
	// can hint future clones without a statistics round-trip.
	var stats []wire.SiteStat
	if s.opts.Planner.Enabled {
		stats = []wire.SiteStat{s.ownStat()}
	}
	msg := &wire.ResultMsg{ID: c.ID, Updates: updates, Tables: tables, Stats: stats}
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
	err := s.send(msg.ID.Site, msg)
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
// (forwarded, bounced, or retired) regardless of completion order.
func (s *Server) forwardAll(outs []*nodeproc.Out) {
	var remote []*nodeproc.Out
	for _, oc := range outs {
		sort.Slice(oc.Msg.Dest, func(i, j int) bool { return oc.Msg.Dest[i].URL < oc.Msg.Dest[j].URL })
		if oc.Site == s.site {
			s.jot(oc.Msg, trace.Forward, oc.Site)
			s.met.LocalClones.Add(1)
			s.Enqueue(oc.Msg)
			continue
		}
		if s.chooseShipData(oc) {
			// The cost model priced the destination documents below the
			// clone: keep the clone on this site's queue and let buildDB
			// pull the documents over instead (ship-data for this edge).
			if s.opts.Journal != nil {
				s.jot(oc.Msg, trace.Forward, "ship-data "+oc.Site)
			}
			s.met.ShipDataEdges.Add(1)
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

// stampReplica marks a result frame with this replica's endpoint and
// incarnation so the user-site can reject replies that predate a
// restart. Unclustered servers leave both fields zero (frames are
// byte-identical to the seed's).
func (s *Server) stampReplica(msg *wire.ResultMsg) {
	if s.inc > 0 {
		msg.From, msg.Inc = s.self, s.inc
	}
}

// forwardRemote ships one outgoing clone over the transport. A failed
// forward retires the affected CHT entries so the user-site does not wait
// on clones that never arrived. The user-site's proxy (no DocSource) is
// its own bounce target: a clone it cannot forward goes back on its own
// queue, to be evaluated on downloaded documents.
func (s *Server) forwardRemote(oc *nodeproc.Out) {
	err := s.sendSite(oc.Site, oc.Msg)
	if err != nil {
		if s.docs == nil {
			s.jot(oc.Msg, trace.Bounce, bounceReason(err, s.opts.Retry))
			s.met.LocalClones.Add(1)
			s.Enqueue(oc.Msg)
			return
		}
		if s.opts.Hybrid && s.bounce(oc.Msg, bounceReason(err, s.opts.Retry)) {
			s.jot(oc.Msg, trace.Bounce, bounceReason(err, s.opts.Retry))
			return
		}
		s.met.ForwardFailed.Add(1)
		s.jot(oc.Msg, trace.ForwardFailed, oc.Site)
		s.retireAll(oc.Msg, retirePlain)
		return
	}
	s.met.ClonesForwarded.Add(1)
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

// bounce returns an undeliverable clone to the user-site, which hands it
// to its proxy (retried per Options.Retry like any remote send). The
// clone's CHT entries stay live; the proxy retires them as it processes
// the bounced destinations. Like a result frame (sendResult), the bounce
// is booked before it goes out and taken back if the send fails, so the
// counts never trail what the user-site has seen.
func (s *Server) bounce(c *wire.CloneMsg, reason string) bool {
	var recovered int64
	if reason == wire.BounceRetryExhausted {
		recovered = 1
	}
	s.met.Bounced.Add(1)
	s.met.RecoveredByBounce.Add(recovered)
	if s.send(c.ID.Site, &wire.BounceMsg{Clone: c, Reason: reason}) != nil {
		s.met.Bounced.Add(-1)
		s.met.RecoveredByBounce.Add(-recovered)
		return false
	}
	return true
}

// retireKind types a clone retirement: plain bookkeeping (failed
// forward, malformed clone), the typed EXPIRED retirement (budget
// enforcement), or the typed STOPPED retirement (active termination).
// The user-site books the typed kinds as the span's fate instead of
// "processed".
type retireKind int

const (
	retirePlain retireKind = iota
	retireExpired
	retireStopped
)

// retireAll dispatches CHT retirements for every destination of a clone
// that will never be processed.
func (s *Server) retireAll(c *wire.CloneMsg, kind retireKind) {
	if len(c.Dest) == 0 {
		return
	}
	msg := &wire.ResultMsg{ID: c.ID, Updates: c.Retirements(),
		Expired: kind == retireExpired, Stopped: kind == retireStopped}
	if s.traced(c) {
		msg.Span, msg.Site, msg.Hop = c.Span, s.site, c.Hops
	}
	// A failed dispatch means the user-site is gone; its reaper owns the
	// stranded entries (same semantics as a failed result dispatch).
	s.sendResult(msg)
}
