// Package webdis is a from-scratch Go implementation of WEBDIS, the
// distributed Web query processing engine of Gupta, Haritsa and Ramanath
// ("Distributed Query Processing on the Web", ICDE 2000; IISc DSL
// TR-1999-01).
//
// WEBDIS answers declarative queries over hyperlinked documents by *query
// shipping*: instead of downloading documents to the user's machine, the
// query itself migrates from web site to web site along the hyperlink
// paths described by Path Regular Expressions; each site evaluates the
// local part of the query against virtual relations built from its own
// documents and streams results straight back to the user-site. A Current
// Hosts Table protocol detects distributed completion, a per-site
// Node-query Log Table suppresses duplicate recomputation, and
// termination is passive — closing the user-site's result socket starves
// every in-flight clone. That socket is one per user-site: every query,
// session and watch of a deployment reports to it and is routed by query
// id. Deployment.Close closes it (through the user-site's Client.Close —
// call that yourself on a client built outside a Deployment, as cmd/webdis
// does). Cancelling one query (Query.Cancel) leaves it open: a site
// reporting to the user-site for the first time has that query's report
// refused and drops it, and the sites already holding a session are sent
// a typed stop.
//
// # Quick start
//
//	web := webdis.CampusWeb() // or your own webdis.NewWeb()
//	d, err := webdis.NewDeployment(webdis.Config{Web: web})
//	if err != nil { ... }
//	defer d.Close()
//
//	q, err := d.Run(`
//	    select d0.url, d1.url, r.text
//	    from document d0 such that "http://csa.iisc.ernet.in/index.html" L d0,
//	    where d0.title contains "lab"
//	         document d1 such that d0 G·(L*1) d1,
//	         relinfon r such that r.delimiter = "hr",
//	    where (r.text contains "convener")`, 0)
//	for _, table := range q.Results() { ... }
//
// The deployment runs one query server per site of the synthetic web on
// an instrumented in-process transport; the same servers also run over
// real TCP (see cmd/webdisd and cmd/webdis). Traffic is counted per edge,
// which is what the tests pinning the paper's figures (EXPERIMENTS.md)
// and the yardstick in benchmark/ measure.
package webdis

import (
	"time"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/cluster"
	"webdis/internal/core"
	"webdis/internal/disql"
	"webdis/internal/index"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/nodequery"
	"webdis/internal/plan"
	"webdis/internal/pre"
	"webdis/internal/sched"
	"webdis/internal/server"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// Core deployment types.
type (
	// Config describes a deployment: the web corpus, the network model
	// and the per-server engine options.
	Config = core.Config
	// Deployment is a running WEBDIS installation: one query server and
	// one document host per site, plus a user-site client.
	Deployment = core.Deployment
	// Query is one in-flight or finished web-query at the user-site.
	Query = client.Query
	// ResultTable is the merged result of one node-query.
	ResultTable = client.ResultTable
	// QueryStats describes a query's CHT protocol activity.
	QueryStats = client.Stats
	// WebQuery is the parsed formal query Q = S p1 q1 … pn qn.
	WebQuery = disql.WebQuery
)

// Engine configuration.
type (
	// ServerOptions configure every query server of a deployment (dedup
	// mode, clone batching, hop bound).
	ServerOptions = server.Options
	// NetOptions configure the simulated network fabric.
	NetOptions = netsim.Options
	// Metrics aggregates engine counters across a deployment.
	Metrics = server.Metrics
	// MetricsSnapshot is a plain-integer copy of Metrics.
	MetricsSnapshot = server.Snapshot
	// DedupMode selects the Node-query Log Table behaviour.
	DedupMode = nodeproc.DedupMode
	// RetryPolicy bounds the forward/dispatch retry loop of every query
	// server (ServerOptions.Retry); the zero value sends exactly once, the
	// paper's behaviour.
	RetryPolicy = server.RetryPolicy
	// FaultPlan is a seeded, deterministic fault schedule for the simulated
	// fabric (NetOptions.Faults): probabilistic message drops, mid-frame
	// severs, transient down windows and asymmetric partitions.
	FaultPlan = netsim.FaultPlan
	// DownWindow is one transient outage of a FaultPlan.
	DownWindow = netsim.DownWindow
	// EdgeBlock is one asymmetric partition of a FaultPlan.
	EdgeBlock = netsim.EdgeBlock
	// CrashWindow is one endpoint-level process kill of a FaultPlan:
	// established connections sever and dials refuse until the restart.
	CrashWindow = netsim.CrashWindow
	// ClusterOptions tune the replica membership table of a replicated
	// deployment (Config.Exec.Replicas / Config.Exec.ReplicasFor).
	ClusterOptions = cluster.Options
	// ClusterMembership is the live replica table (Deployment.Cluster):
	// health states, incarnations and the replica picker.
	ClusterMembership = cluster.Membership
	// ReplicaInfo is one replica's row in a membership snapshot.
	ReplicaInfo = cluster.Info
	// SchedOptions configure every server's clone scheduler
	// (ServerOptions.Sched): FIFO (the zero value, the paper's queue),
	// weighted fair drain, and watermark admission control.
	SchedOptions = sched.Options
	// SchedStats is a point-in-time summary of one server's queue.
	SchedStats = sched.Stats
	// StoreOptions configure the persistent page-based site store
	// (ServerOptions.Store): slotted-page heap files, a bounded buffer
	// pool, and an on-disk inverted text index per site. The zero value
	// keeps the in-RAM Database Constructor.
	StoreOptions = server.StoreOptions
	// OutputSpec is a query's aggregation/ordering contract (WebQuery.
	// Output): aggregate select items, GROUP BY, ORDER BY and LIMIT.
	OutputSpec = nodequery.OutputSpec
	// SyntaxError is the typed error every DISQL parse failure returns,
	// carrying the byte offset of the offending token (-1 when the error
	// is structural rather than positional).
	SyntaxError = disql.SyntaxError
)

// Multi-query workloads.
type (
	// Budget is a wire-carried execution budget: an absolute deadline,
	// hop/clone/row quotas, a first-N row target (Budget.FirstN, which
	// arms active early termination at the user-site) and a scheduling
	// weight. It travels on every clone message; children inherit it
	// decremented. The zero Budget is unlimited. Submit with
	// Deployment.SubmitBudget or Session.SubmitBudget.
	Budget = wire.Budget
	// Session is a multi-query user-site session: a handle over a group
	// of concurrent queries that can be counted and cancelled together
	// (Deployment.NewSession). It owns no socket — all queries of a
	// user-site share its one result endpoint.
	Session = client.Session
	// ClientOptions configure the user-site client in one struct (the
	// proxy query server of the Section 7.1 migration path, reap grace,
	// metrics, tracing, index resolver).
	ClientOptions = client.Options
	// StreamRow is one result row delivered incrementally by
	// Query.Stream: the node-query stage it answers and the row itself.
	// (Query.Rows, the pull-iterator form, yields the pair directly.)
	StreamRow = client.StreamRow
)

// Typed error taxonomy: how a query failed or degraded, matchable with
// errors.Is against Query.Wait/WaitContext returns and Query.Err.
var (
	// ErrCancelled: the query was cancelled (Query.Cancel, or a cancelled
	// submit/wait context).
	ErrCancelled = client.ErrCancelled
	// ErrTimeout: a Wait deadline passed before completion; the query
	// keeps running until cancelled.
	ErrTimeout = client.ErrTimeout
	// ErrShed: at least one site refused the query under admission
	// control (Query.Shed reports the same as a bool).
	ErrShed = client.ErrShed
	// ErrExpired: budget enforcement clipped the query (Query.Expired).
	ErrExpired = client.ErrExpired
	// ErrPartial: the user-site wrote off CHT entries — clones no site or
	// proxy could take, or orphans its reaper retired — so part of the web
	// went unanswered (Query.Partial, Query.Unreachable).
	ErrPartial = client.ErrPartial
)

// Continuous queries over a mutating web: register a standing query with
// Deployment.Watch, drive the seeded mutation schedule with
// Deployment.Mutate, and consume typed add/remove row deltas.
type (
	// Watch is one standing query: a delta-maintained result set that
	// tracks the mutating web, with a change feed (Watch.Deltas /
	// Watch.Stream), epoch barriers (Watch.WaitEpoch) and snapshots in
	// Query.Results shape (Watch.Results).
	Watch = client.Watch
	// WatchOptions configure one standing query (Deployment.Watch).
	WatchOptions = core.WatchOptions
	// WatchConfig is the deployment-wide continuous-query group
	// (Config.Watch): the mutation schedule and the default re-derivation
	// budget.
	WatchConfig = core.WatchConfig
	// Delta is one standing-result change: the epoch that produced it,
	// the add/remove op, the node-query stage and the row.
	Delta = client.Delta
	// DeltaOp types a Delta as an addition or a removal.
	DeltaOp = client.DeltaOp
	// MutationPlan is a seeded, deterministic web mutation schedule
	// (Config.Watch.Mutations); the zero value is a frozen web.
	MutationPlan = webgraph.MutationPlan
	// Mutation is one applied web change (Deployment.Mutate).
	Mutation = webgraph.Mutation
	// MutationKind classifies a Mutation: text edit, link rewire, page
	// birth or page death.
	MutationKind = webgraph.MutationKind
	// ExecConfig is the execution option group of Config (Config.Exec):
	// transport, server options, client behaviour and tracing.
	ExecConfig = core.ExecConfig
)

// Delta operations.
const (
	DeltaRemove = client.DeltaRemove
	DeltaAdd    = client.DeltaAdd
)

// Web mutation kinds (MutationPlan op mix; Mutation.Kind).
const (
	MutEditText   = webgraph.MutEditText
	MutRewireLink = webgraph.MutRewireLink
	MutAddPage    = webgraph.MutAddPage
	MutRemovePage = webgraph.MutRemovePage
)

// Watch-specific errors, matchable with errors.Is.
var (
	// ErrWatchOutput: grouped/ordered queries cannot be watched — their
	// output contract is not incrementally maintainable row-by-row.
	ErrWatchOutput = client.ErrWatchOutput
	// ErrWatchCorrelated: correlated stages (a later predicate reading an
	// earlier stage's document) are not watchable.
	ErrWatchCorrelated = client.ErrWatchCorrelated
	// ErrWatchClosed: the watch was closed (final error of a drained
	// delta feed).
	ErrWatchClosed = client.ErrWatchClosed
)

// Log-table dedup modes (paper Section 3.1.1 and extensions).
const (
	DedupOff     = nodeproc.DedupOff
	DedupExact   = nodeproc.DedupExact
	DedupSubsume = nodeproc.DedupSubsume // the paper's scheme; the default
	DedupStrong  = nodeproc.DedupStrong
)

// Synthetic web construction.
type (
	// Web is a synthetic document corpus grouped into sites.
	Web = webgraph.Web
	// Page is one synthetic web resource under construction.
	Page = webgraph.Page
	// TreeOpts parameterize the Tree generator.
	TreeOpts = webgraph.TreeOpts
	// RandomOpts parameterize the Random generator.
	RandomOpts = webgraph.RandomOpts
)

// NewWeb returns an empty synthetic web; add pages with Web.NewPage.
func NewWeb() *Web { return webgraph.NewWeb() }

// CampusWeb builds the paper's Section 5 campus web (Figures 7 and 8).
func CampusWeb() *Web { return webgraph.Campus() }

// Figure1Web builds the traversal example of the paper's Figure 1.
func Figure1Web() *Web { return webgraph.Figure1() }

// Figure5Web builds the duplicate-arrivals example of the paper's
// Figure 5.
func Figure5Web() *Web { return webgraph.Figure5() }

// TreeWeb builds a complete tree-shaped web.
func TreeWeb(o TreeOpts) *Web { return webgraph.Tree(o) }

// RandomWeb builds a strongly cross-linked random web.
func RandomWeb(o RandomOpts) *Web { return webgraph.Random(o) }

// ChainWeb builds a linear web of n pages, a new site every pagesPerSite
// pages.
func ChainWeb(n, pagesPerSite int, seed int64) *Web {
	return webgraph.Chain(n, pagesPerSite, seed)
}

// GridWeb builds a cols×rows lattice web (columns are sites).
func GridWeb(cols, rows int, seed int64) *Web { return webgraph.Grid(cols, rows, seed) }

// Paper example queries, matched to the corresponding generated webs.
const (
	// CampusQuery is the paper's Example Query 2 (the convener query) for
	// CampusWeb.
	CampusQuery = webgraph.CampusDISQL
	// Figure1Query drives the Figure-1 traversal on Figure1Web.
	Figure1Query = webgraph.Figure1DISQL
	// Figure5Query drives the Figure-5 duplicate scenario on Figure5Web.
	Figure5Query = webgraph.Figure5DISQL
)

// NewDeployment builds and starts a WEBDIS deployment over cfg.Web.
func NewDeployment(cfg Config) (*Deployment, error) { return core.NewDeployment(cfg) }

// ReplicaEndpoint names replica i of a site's query server: replica 0
// is the classic "site/query" endpoint, higher replicas append "@i".
// Pass it to Network.Kill or a FaultPlan to target a single replica.
func ReplicaEndpoint(site string, i int) string { return cluster.ReplicaEndpoint(site, i) }

// ParseDISQL parses a DISQL query into its formal web-query.
func ParseDISQL(src string) (*WebQuery, error) { return disql.Parse(src) }

// Explain renders the distributed plan of a web-query: the per-stage
// operator trees the sites will run and what every site folds before
// its rows ship.
func Explain(w *WebQuery) string { return plan.Explain(w) }

// ParsePRE parses a Path Regular Expression such as "N | G·(L*4)".
func ParsePRE(src string) (pre.Expr, error) { return pre.Parse(src) }

// Centralized baseline (data shipping), for comparisons.
type (
	// CentralizedOptions configure a data-shipping run.
	CentralizedOptions = centralized.Options
	// CentralizedResult is the outcome of a data-shipping run.
	CentralizedResult = centralized.Result
)

// RunCentralized evaluates w by downloading documents from d's sites to
// the user-site and evaluating locally — the baseline the paper argues
// against. The deployment's document hosts must be running (the default).
func RunCentralized(d *Deployment, w *WebQuery, opts CentralizedOptions) (*CentralizedResult, error) {
	return centralized.Run(d.Network(), "centralized/results", w, opts)
}

// Wait bounds for convenience.
const (
	// Forever waits indefinitely in Query.Wait and Deployment.Run.
	Forever time.Duration = 0
)

// SearchIndex is an inverted index over a synthetic web — the "existing
// search-index" that resolves index("term") StartNode sources (paper
// Sections 1.1 and 7.1). Deployments build one lazily on demand
// (Deployment.Index); BuildIndex constructs one directly.
type SearchIndex = index.Index

// BuildIndex indexes every page of web.
func BuildIndex(web *Web) (*SearchIndex, error) { return index.Build(web) }

// PowerLawOpts parameterize the PowerLaw generator.
type PowerLawOpts = webgraph.PowerLawOpts

// PowerLawWeb builds a preferential-attachment web with hub pages, the
// heavy-tailed topology of the real late-1990s Web.
func PowerLawWeb(o PowerLawOpts) *Web { return webgraph.PowerLaw(o) }
