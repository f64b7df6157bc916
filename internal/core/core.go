// Package core assembles complete WEBDIS deployments: it takes a
// (synthetic) web, starts one document host and one query server per site
// on a shared transport, and exposes a user-site client — everything
// needed to run the paper's distributed query processing end to end in
// one process, with full traffic accounting.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"webdis/internal/client"
	"webdis/internal/cluster"
	"webdis/internal/disql"
	"webdis/internal/index"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

// ExecConfig groups a deployment's execution-path knobs: how query
// servers run, which sites participate, how the user-site degrades and
// observes.
type ExecConfig struct {
	// Server configures every query server (dedup mode, batching, ...).
	Server server.Options
	// Transport, when set, runs the deployment over this transport (e.g.
	// netsim.NewTCP for real sockets within one process) instead of a
	// fresh simulated fabric. Network() then returns nil: the fabric's
	// fault injection, traffic stats and transport-level trace observer
	// are unavailable, and Config.Net is ignored.
	Transport netsim.Transport
	// User names the user submitting queries; defaults to "user".
	User string
	// NoDocService skips starting the per-site fetch services; the
	// distributed engine reads documents co-located, so only runs that
	// also use the centralized baseline need them.
	NoDocService bool
	// Participate, when non-nil, selects which sites run a query server —
	// the paper's Section 7.1 world where only some of the web has
	// adopted WEBDIS. Non-participating sites keep their document host.
	// Servers always bounce undeliverable clones back to the user-site;
	// Participate starts its proxy — one more query server, built with
	// Server and no documents — which evaluates them on downloaded
	// documents. Incompatible with NoDocService (the proxy downloads).
	Participate func(site string) bool
	// Hybrid starts the user-site's proxy even when every site
	// participates: a clone whose forward attempts are exhausted under
	// Server.Retry is bounced to the user-site and evaluated there —
	// per-edge degraded-mode recovery from query shipping to data
	// shipping — instead of being written off as a declared loss.
	// Implied by Participate. Incompatible with NoDocService, like
	// Participate.
	Hybrid bool
	// ReapGrace arms the client's orphan-CHT reaper: a query that has
	// seen no report for this long while entries remain outstanding is
	// completed as Partial, its orphans written off. Zero disables reaping.
	ReapGrace time.Duration
	// Replicas runs every participating site as N replica query servers
	// behind a shared cluster membership table (see internal/cluster):
	// replica 0 listens on the classic "<site>/query" endpoint, replicas
	// 1..N-1 on "<site>/query@i", and every forward path picks a live
	// replica with failover. 0 or 1 is the classic unreplicated
	// deployment.
	Replicas int
	// ReplicasFor overrides Replicas per site — e.g. replicate only the
	// hot site of a skewed workload. Sites not in the map use Replicas.
	ReplicasFor map[string]int
	// Cluster tunes the membership table's health machinery (probe
	// cadence, demotion thresholds, seed). Only consulted when some site
	// has more than one replica.
	Cluster cluster.Options
	// Trace arms causal tracing: every site (and the user-site) gets a
	// trace.Journal, clones carry span ids, and transport-level events
	// (dials, refusals, dropped and severed frames) are journaled via the
	// fabric's observer hook. Journeys are reconstructed with Journey.
	Trace bool
	// TraceCapacity sizes each journal's event ring; <= 0 uses
	// trace.DefaultCapacity.
	TraceCapacity int
}

// WatchConfig groups the continuous-query knobs: the seeded mutation
// schedule the deployment's web evolves under, and the budget standing
// queries run their initial traversal with. The zero value is a frozen
// web.
type WatchConfig struct {
	// Mutations drives Deployment.Mutate: a seeded, deterministic
	// schedule of page edits, link rewires, page births and deaths.
	// The zero plan mutates nothing.
	Mutations webgraph.MutationPlan
	// Budget applies to every watch's initial run (incremental re-runs
	// always ship as low-weight flows regardless).
	Budget wire.Budget
}

// Config describes a deployment: the web plus the network, execution,
// storage and continuous-query option groups.
type Config struct {
	// Web is the document corpus; one query server and one document host
	// start per site. Required.
	Web *webgraph.Web
	// Net groups the simulated fabric's knobs (latency, bandwidth,
	// fault plan, observer).
	Net netsim.Options
	// Exec groups the execution-path knobs (server options, the
	// user-site's proxy, replicas, tracing, ...).
	Exec ExecConfig
	// Storage groups the persistent site-store knobs, applied to every
	// query server. When non-zero it is Exec.Server.Store.
	Storage server.StoreOptions
	// Watch groups the continuous-query knobs (mutation schedule, watch
	// budget).
	Watch WatchConfig
}

// Deployment is a running WEBDIS installation over a simulated web.
type Deployment struct {
	web     *webgraph.Web
	network *netsim.Network  // nil when Config.Exec.Transport was supplied
	tr      netsim.Transport // the transport everything runs over
	hosts   map[string]*webserver.Host
	servers map[string][]*server.Server // per site, replica 0 first
	cluster *cluster.Membership         // nil when no site is replicated
	client  *client.Client
	user    string
	// proxy is the user-site's own query server under Participate/Hybrid
	// (nil otherwise): the Section 7.1 migration path.
	proxy *server.Server

	// Per-site engine metrics: one instance per query server, plus one
	// for the user-site (client and proxy) under the user name. Metrics
	// aggregates them.
	siteMetrics   map[string]*server.Metrics
	clientMetrics *server.Metrics

	// Trace journals, present when Config.Exec.Trace is set: one per query
	// server, one for the user-site (client and proxy), one for the fabric
	// ("(net)").
	journals      map[string]*trace.Journal
	clientJournal *trace.Journal
	netJournal    *trace.Journal

	ixOnce sync.Once
	ix     *index.Index
	ixErr  error

	// Continuous-query machinery: the seeded web mutator (nil plan gives
	// an inert one), the budget watches run their initial traversal
	// with, and the deployment-lifetime done channel that bounds every
	// client-side pump goroutine.
	mut         *webgraph.Mutator
	watchBudget wire.Budget
	done        chan struct{}
	closeOnce   sync.Once
}

// NewDeployment builds and starts a deployment.
func NewDeployment(cfg Config) (*Deployment, error) {
	if cfg.Web == nil {
		return nil, fmt.Errorf("core: Config.Web is required")
	}
	ex := cfg.Exec
	hybrid := ex.Participate != nil || ex.Hybrid
	if hybrid && ex.NoDocService {
		return nil, fmt.Errorf("core: Participate/Hybrid requires the document service (the user-site's proxy downloads)")
	}
	user := ex.User
	if user == "" {
		user = "user"
	}
	srvOpts := ex.Server
	if cfg.Storage != (server.StoreOptions{}) {
		srvOpts.Store = cfg.Storage
	}
	if ex.NoDocService {
		// A ship-data edge downloads documents from their home site's
		// fetch service; without the service such an edge would dead-end.
		// Pin every edge to ship-query — pushdown and statistics still run.
		srvOpts.Planner.NoShipData = true
	}
	netOpts := cfg.Net
	var netJournal *trace.Journal
	if ex.Trace {
		// Transport-level events ride in their own journal, hooked into
		// the fabric's observer (netsim cannot import trace).
		netJournal = trace.NewJournal("(net)", ex.TraceCapacity)
		prev := netOpts.Observer
		netOpts.Observer = func(kind, from, to string) {
			netJournal.Append(trace.Event{Kind: trace.Kind(kind), Node: from, Detail: to})
			if prev != nil {
				prev(kind, from, to)
			}
		}
	}
	tr := ex.Transport
	var network *netsim.Network
	if tr == nil {
		network = netsim.New(netOpts)
		tr = network
	}
	d := &Deployment{
		web:           cfg.Web,
		network:       network,
		tr:            tr,
		hosts:         make(map[string]*webserver.Host),
		servers:       make(map[string][]*server.Server),
		user:          user,
		siteMetrics:   make(map[string]*server.Metrics),
		clientMetrics: &server.Metrics{},
		journals:      make(map[string]*trace.Journal),
		netJournal:    netJournal,
		mut:           webgraph.NewMutator(cfg.Web, cfg.Watch.Mutations),
		watchBudget:   cfg.Watch.Budget,
		done:          make(chan struct{}),
	}

	// One membership table serves the whole deployment — every server and
	// the client consult the same health state. It exists only when some
	// participating site actually runs more than one replica; otherwise
	// everything stays on the seed's one-endpoint-per-site path.
	replicated := false
	for _, site := range cfg.Web.Hosts() {
		if ex.Participate != nil && !ex.Participate(site) {
			continue
		}
		if replicasOf(ex, site) > 1 {
			replicated = true
			break
		}
	}
	if replicated {
		d.cluster = cluster.New(ex.Cluster)
		srvOpts.Cluster = d.cluster
	}

	for _, site := range cfg.Web.Hosts() {
		h := webserver.NewHost(site, cfg.Web)
		d.hosts[site] = h
		if !ex.NoDocService {
			if err := h.Start(tr); err != nil {
				d.Close()
				return nil, err
			}
		}
		if ex.Participate != nil && !ex.Participate(site) {
			continue // the site hosts documents but runs no query server
		}
		n := replicasOf(ex, site)
		if d.cluster != nil {
			d.cluster.AddSite(site, n)
		}
		for i := 0; i < n; i++ {
			key := replicaKey(site, i)
			met := &server.Metrics{}
			d.siteMetrics[key] = met
			opts := srvOpts
			opts.Replica = i
			if ex.Trace {
				j := trace.NewJournal(key, ex.TraceCapacity)
				d.journals[key] = j
				opts.Journal = j
			}
			s := server.New(site, h, tr, met, opts)
			d.servers[site] = append(d.servers[site], s)
			if err := s.Start(); err != nil {
				d.Close()
				return nil, err
			}
		}
	}
	if d.cluster != nil {
		d.cluster.StartProber(tr)
	}
	if ex.Trace {
		d.clientJournal = trace.NewJournal(user, ex.TraceCapacity)
	}
	if hybrid {
		// The user-site's proxy shares the user-site's metrics and journal,
		// so its work shows in the user-name row of SiteSnapshots.
		opts := srvOpts
		opts.Journal = d.clientJournal
		d.proxy = server.New(user, nil, tr, d.clientMetrics, opts)
		if err := d.proxy.Start(); err != nil {
			d.Close()
			return nil, err
		}
	}
	d.client = client.NewWith(tr, user, user, client.Options{
		Proxy:     d.proxy,
		ReapGrace: ex.ReapGrace,
		Metrics:   d.clientMetrics,
		Journal:   d.clientJournal,
		Cluster:   d.cluster,
		// The user-site half of the planner follows the servers': frags
		// on root clones, statistics learned and re-hinted.
		Planner: ex.Server.Planner.Enabled,
		Done:    d.done,
		// Resolve index("term") StartNode sources against the deployment's
		// search index, built lazily on first use.
		IndexResolver: func(term string) []string {
			ix, err := d.Index()
			if err != nil {
				return nil
			}
			return ix.URLs(term, 0)
		},
	})
	return d, nil
}

// replicasOf resolves the configured replica count of one site (at least
// 1).
func replicasOf(ex ExecConfig, site string) int {
	n := ex.Replicas
	if o, ok := ex.ReplicasFor[site]; ok {
		n = o
	}
	if n < 1 {
		n = 1
	}
	return n
}

// replicaKey names one replica's metrics and journal: the bare site for
// replica 0 (so unreplicated deployments keep their seed keys), "site@i"
// beyond.
func replicaKey(site string, i int) string {
	if i <= 0 {
		return site
	}
	return site + "@" + fmt.Sprint(i)
}

// Index returns the deployment's search index over its web, building it
// on first use — the "existing search-index" that resolves index("term")
// StartNode sources.
func (d *Deployment) Index() (*index.Index, error) {
	d.ixOnce.Do(func() {
		d.ix, d.ixErr = index.Build(d.web)
	})
	return d.ix, d.ixErr
}

// Submit dispatches a parsed web-query from the deployment's user-site.
func (d *Deployment) Submit(w *disql.WebQuery) (*client.Query, error) {
	return d.client.Submit(w)
}

// SubmitBudget dispatches a parsed web-query carrying an execution
// budget (deadline, hop/clone/row quotas, scheduling weight); the budget
// travels on every clone and is inherited, decremented, by its children.
func (d *Deployment) SubmitBudget(w *disql.WebQuery, b wire.Budget) (*client.Query, error) {
	return d.client.SubmitBudget(w, b)
}

// NewSession opens a multi-query session at the user-site: a handle over
// a group of concurrent queries, the client side of the multi-user
// workload the scheduler exists for. Close it when done.
func (d *Deployment) NewSession() (*client.Session, error) {
	return d.client.NewSession()
}

// SubmitDISQL parses and dispatches a DISQL query.
func (d *Deployment) SubmitDISQL(src string) (*client.Query, error) {
	w, err := disql.Parse(src)
	if err != nil {
		return nil, err
	}
	return d.Submit(w)
}

// Run submits a DISQL query and waits for completion (timeout <= 0 waits
// forever), returning the finished query. A query that exceeds the
// timeout is cancelled before Run returns: its in-flight clones, the
// proxy's included, are told to stop. The partial results
// gathered before the deadline remain readable.
func (d *Deployment) Run(src string, timeout time.Duration) (*client.Query, error) {
	q, err := d.SubmitDISQL(src)
	if err != nil {
		return nil, err
	}
	if err := q.Wait(timeout); err != nil {
		if errors.Is(err, client.ErrTimeout) {
			q.Cancel()
		}
		return q, err
	}
	return q, nil
}

// RunContext submits a DISQL query bound to ctx and waits for it. A ctx
// that ends first cancels the query (typed StopMsg broadcast to its
// in-flight clones); the partial results
// gathered remain readable on the returned query. The context-first form
// of Run.
func (d *Deployment) RunContext(ctx context.Context, src string) (*client.Query, error) {
	w, err := disql.Parse(src)
	if err != nil {
		return nil, err
	}
	q, err := d.client.SubmitContext(ctx, w)
	if err != nil {
		return nil, err
	}
	if err := q.WaitContext(ctx); err != nil {
		if errors.Is(err, client.ErrTimeout) {
			// A ctx deadline, unlike an explicit cancel, does not cancel
			// the query from inside WaitContext; match Run's contract.
			q.Cancel()
		}
		return q, err
	}
	return q, nil
}

// SubmitContext dispatches a parsed web-query bound to ctx (see
// client.Client.SubmitContext).
func (d *Deployment) SubmitContext(ctx context.Context, w *disql.WebQuery) (*client.Query, error) {
	return d.client.SubmitContext(ctx, w)
}

// Web returns the deployment's document corpus.
func (d *Deployment) Web() *webgraph.Web { return d.web }

// Done returns the deployment-lifetime channel, closed by Close. Every
// client-side pump goroutine (query streams, watches) is bounded by it.
func (d *Deployment) Done() <-chan struct{} { return d.done }

// Mutator returns the deployment's seeded web mutator (inert unless
// Config.Watch.Mutations is set), for callers that need step-level
// control; most should use Mutate.
func (d *Deployment) Mutator() *webgraph.Mutator { return d.mut }

// Mutate applies up to n steps of the configured mutation schedule and
// propagates the changes: every touched site's query servers (all
// replicas) and the user-site's proxy evict exactly the mutated documents
// from their retained-DB caches and mark the matching store entries and
// text-index postings stale, and every registered watch is sent one
// change notification per touched site. It returns the applied mutations
// and the notification count — the WaitEpoch barrier increment for any
// watch registered across the whole deployment.
func (d *Deployment) Mutate(n int) ([]webgraph.Mutation, int) {
	muts := d.mut.Apply(n)
	edited := make(map[string][]string)
	rewired := make(map[string][]string)
	var sites []string
	note := func(urls []string, into map[string][]string) {
		for _, u := range urls {
			site := webgraph.Host(u)
			if _, ok := edited[site]; !ok {
				if _, ok := rewired[site]; !ok {
					sites = append(sites, site)
				}
			}
			into[site] = append(into[site], u)
		}
	}
	for _, m := range muts {
		ed, rw := m.Touched()
		note(ed, edited)
		note(rw, rewired)
	}
	sort.Strings(sites)
	notified := 0
	for _, site := range sites {
		if d.proxy != nil {
			// The proxy downloads and retains any site's documents.
			d.proxy.InvalidateDocs(edited[site], rewired[site])
		}
		reps := d.servers[site]
		if len(reps) == 0 {
			continue // non-participating site: nothing caches its documents
		}
		for _, s := range reps {
			s.InvalidateDocs(edited[site], rewired[site])
		}
		notified++
	}
	return muts, notified
}

// WatchOptions configure one standing query.
type WatchOptions struct {
	// Budget applies to the watch's initial run, overriding the
	// deployment-wide Config.Watch.Budget when non-zero.
	Budget wire.Budget
}

// Watch parses src and registers it as a standing query: the initial
// result set is computed with a normal distributed run, every
// participating site is asked to push change notifications, and from
// then on Deployment.Mutate drives incremental re-derivation — typed
// add/remove row deltas on the returned Watch, one epoch per
// notification. ctx bounds the initial run and, when cancellable, the
// watch itself. Close the watch when done; Close'ing the deployment
// releases it too.
func (d *Deployment) Watch(ctx context.Context, src string, opts WatchOptions) (*client.Watch, error) {
	w, err := disql.Parse(src)
	if err != nil {
		return nil, err
	}
	return d.WatchQuery(ctx, w, opts)
}

// WatchQuery is Watch for an already-parsed web-query.
func (d *Deployment) WatchQuery(ctx context.Context, w *disql.WebQuery, opts WatchOptions) (*client.Watch, error) {
	b := opts.Budget
	if b.IsZero() {
		b = d.watchBudget
	}
	sites := make([]string, 0, len(d.servers))
	for site := range d.servers {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	wa, err := d.client.WatchBudget(ctx, w, sites, b)
	if err != nil {
		return nil, err
	}
	d.awaitRegistered(ctx, wa.ID(), sites)
	return wa, nil
}

// registerGrace bounds how long a new watch is held back for its
// registrations to take effect.
const registerGrace = 2 * time.Second

// awaitRegistered holds a new watch back until every site has processed
// its registration. A WatchMsg travels unacknowledged, and a site's
// receive loop may get to it after the watch's initial run has long
// finished (the run reaches the site over other connections). Mutate
// reads the sites' registries directly, so a mutation in that window
// would notify nobody and the watch would miss the epoch for good.
// Registration is best-effort — an unreachable site is skipped — so the
// wait is bounded, not an error.
func (d *Deployment) awaitRegistered(ctx context.Context, id wire.QueryID, sites []string) {
	deadline := time.Now().Add(registerGrace)
	for _, site := range sites {
		for !slices.ContainsFunc(d.servers[site], func(s *server.Server) bool { return s.Watching(id) }) {
			if ctx.Err() != nil || time.Now().After(deadline) {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// Network returns the simulated fabric (for stats and failure
// injection), or nil when the deployment runs over Config.Exec.Transport.
func (d *Deployment) Network() *netsim.Network { return d.network }

// Transport returns the transport the deployment runs over: the
// simulated fabric, or Config.Exec.Transport when one was supplied.
func (d *Deployment) Transport() netsim.Transport { return d.tr }

// Metrics returns the deployment-wide engine metrics: a fresh aggregate
// of every site's instance plus the client's, materialized per call —
// callers that poll must call Metrics again for updated counts (all
// existing callers already do).
func (d *Deployment) Metrics() *server.Metrics {
	agg := &server.Metrics{}
	for _, m := range d.siteMetrics {
		agg.Absorb(m)
	}
	agg.Absorb(d.clientMetrics)
	return agg
}

// SiteSnapshots returns one metrics snapshot per query server, keyed by
// site, plus the user-site's counters (client and proxy) under the user
// name — the per-site attribution the single aggregate cannot give (which
// site evaluated, which site's forwards failed).
func (d *Deployment) SiteSnapshots() map[string]server.Snapshot {
	out := make(map[string]server.Snapshot, len(d.siteMetrics)+1)
	for site, m := range d.siteMetrics {
		out[site] = m.Snapshot()
	}
	out[d.user] = d.clientMetrics.Snapshot()
	return out
}

// Tracing reports whether the deployment was built with Config.Exec.Trace.
func (d *Deployment) Tracing() bool { return d.netJournal != nil }

// Journal returns the trace journal of one site (the user name returns
// the client's journal, "(net)" the fabric's), or nil when tracing is
// off or the site runs no query server.
func (d *Deployment) Journal(site string) *trace.Journal {
	switch site {
	case d.user:
		return d.clientJournal
	case "(net)":
		return d.netJournal
	}
	return d.journals[site]
}

// journalKeys returns every server journal key (sites plus "site@i"
// replica keys), sorted for deterministic merge order.
func (d *Deployment) journalKeys() []string {
	keys := make([]string, 0, len(d.journals))
	for k := range d.journals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TraceEvents merges every journal — all sites (every replica), the
// client, the fabric — into one time-ordered stream.
func (d *Deployment) TraceEvents() []trace.Event {
	var out []trace.Event
	for _, key := range d.journalKeys() {
		out = append(out, d.journals[key].Events()...)
	}
	out = append(out, d.clientJournal.Events()...)
	out = append(out, d.netJournal.Events()...)
	sort.SliceStable(out, func(i, k int) bool { return out[i].At < out[k].At })
	return out
}

// Journey reconstructs the causal clone tree of one query from the
// deployment's journals. Call after the query completes (or at least
// quiesces) for a stable tree.
func (d *Deployment) Journey(q *client.Query) *trace.Journey {
	return trace.BuildJourney(q.ID().String(), d.TraceEvents())
}

// FlushTraces drains and resets every journal, returning the merged
// events. Use between measured runs so each query reads a clean slate;
// it must not race with an in-flight query.
func (d *Deployment) FlushTraces() []trace.Event {
	var out []trace.Event
	for _, key := range d.journalKeys() {
		out = append(out, d.journals[key].Flush()...)
	}
	out = append(out, d.clientJournal.Flush()...)
	out = append(out, d.netJournal.Flush()...)
	sort.SliceStable(out, func(i, k int) bool { return out[i].At < out[k].At })
	return out
}

// Client returns the deployment's user-site client.
func (d *Deployment) Client() *client.Client { return d.client }

// Server returns the primary query server of site (replica 0), or nil.
func (d *Deployment) Server(site string) *server.Server {
	if reps := d.servers[site]; len(reps) > 0 {
		return reps[0]
	}
	return nil
}

// Replicas returns every query-server replica of site (replica 0 first),
// or nil. Unreplicated sites return a one-element slice.
func (d *Deployment) Replicas(site string) []*server.Server { return d.servers[site] }

// Cluster returns the deployment's replica membership table, or nil when
// no site is replicated.
func (d *Deployment) Cluster() *cluster.Membership { return d.cluster }

// Host returns the document host of site, or nil.
func (d *Deployment) Host(site string) *webserver.Host { return d.hosts[site] }

// Close closes the deployment's done channel — releasing every stream
// pump and watch whose consumer abandoned it — then the user-site client
// (its collector endpoint, and with it whatever was still in flight) and
// proxy, the health prober, every server replica and document host.
// Idempotent.
func (d *Deployment) Close() {
	d.closeOnce.Do(func() { close(d.done) })
	if d.client != nil {
		d.client.Close()
	}
	if d.proxy != nil {
		d.proxy.Stop()
	}
	if d.cluster != nil {
		d.cluster.StopProber()
	}
	for _, reps := range d.servers {
		for _, s := range reps {
			s.Stop()
		}
	}
	for _, h := range d.hosts {
		h.Stop()
	}
}
