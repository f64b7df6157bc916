package server

import (
	"reflect"
	"sync/atomic"

	"webdis/internal/nodeproc"
)

// Metrics counts engine events. Each server owns its own Metrics value
// (and the client another), so counters attribute work to the site that
// did it; Absorb folds instances together when a deployment-wide view is
// wanted. All fields are atomic; read them with Load.
type Metrics struct {
	// Evaluations counts node-query evaluations (ServerRouter visits).
	Evaluations atomic.Int64
	// PureRoutes counts visits where no node-query was due (PureRouter).
	PureRoutes atomic.Int64
	// DocsParsed counts Database Constructor runs (one per document load).
	DocsParsed atomic.Int64
	// DBCacheHits counts evaluations served by a retained database
	// (Options.CacheDBs, the paper's footnote-3 variant).
	DBCacheHits atomic.Int64
	// DeadEnds counts node-queries that found no answer and stopped the
	// clone.
	DeadEnds atomic.Int64
	// DupDropped counts arrivals purged by the Node-query Log Table.
	DupDropped atomic.Int64
	// DupRewritten counts superset arrivals processed after the
	// A*m·B → A·A*(m-1)·B rewrite.
	DupRewritten atomic.Int64
	// ClonesForwarded counts clone messages sent to other sites.
	ClonesForwarded atomic.Int64
	// LocalClones counts clones passed to the local queue without any
	// network traffic (destination node on the same site, or a clone the
	// user-site's proxy could not forward).
	LocalClones atomic.Int64
	// ResultMsgs counts result/CHT dispatches to the user-site.
	ResultMsgs atomic.Int64
	// Terminated counts clone batches dropped because the result dispatch
	// failed — the paper's passive termination signal.
	Terminated atomic.Int64
	// ForwardFailed counts clones a site could neither deliver nor bounce:
	// the user-site was unreachable too, so its reaper owns them.
	ForwardFailed atomic.Int64
	// Bounced counts clones returned to the user-site, which hands them to
	// its proxy (Section 7.1 migration path) or writes them off.
	Bounced atomic.Int64
	// HopsClamped counts forwards suppressed by the MaxHops safety bound.
	HopsClamped atomic.Int64
	// DocErrors counts destination nodes whose document could not be
	// loaded (floating links, failed downloads).
	DocErrors atomic.Int64
	// Retries counts repeat attempts made under Options.Retry (forwards,
	// result dispatches, bounces and document downloads past their first
	// try).
	Retries atomic.Int64
	// RecoveredByBounce counts bounced clones whose retry loop was
	// exhausted that the user-site handed to its proxy — degraded-mode
	// recovery from query shipping to data shipping for one failed edge.
	RecoveredByBounce atomic.Int64
	// CHTReaped counts CHT entries the user-site wrote off, booked when
	// their query finishes: clones no proxy took, and the reaper's orphans
	// (a crashed or partitioned site that will never report).
	CHTReaped atomic.Int64

	// ConnDialed counts fresh transport dials made by the send path.
	ConnDialed atomic.Int64
	// ConnReused counts sends served by an idle pooled connection
	// instead of a fresh dial.
	ConnReused atomic.Int64
	// ConnStale counts reused connections that turned out dead (the peer
	// closed them while idle) and were transparently replaced by a fresh
	// dial within the same send attempt.
	ConnStale atomic.Int64
	// ParseCacheHits and ParseCacheMisses count arriving PRE strings
	// (stage PREs plus the clone's remaining PRE) served by, or compiled
	// into, the worker's compiled-query cache (nodeproc.Batch): a
	// steady-state clone is all hits.
	ParseCacheHits   atomic.Int64
	ParseCacheMisses atomic.Int64
	// DBBuildCoalesced counts database requests that joined another
	// worker's in-flight build of the same node instead of running their
	// own Database Constructor.
	DBBuildCoalesced atomic.Int64
	// ForwardNanos accumulates wall-clock nanoseconds spent shipping
	// remote forwards per processed clone message — the fan-out critical
	// path that the parallel forward workers shorten.
	ForwardNanos atomic.Int64

	// QueueDepth is a gauge: clones currently admitted to the scheduler
	// queue but not yet handed to a worker.
	QueueDepth atomic.Int64
	// QueueHighWater counts the times admission control newly engaged
	// (the queue depth crossed the high watermark).
	QueueHighWater atomic.Int64
	// Shed counts fresh clones refused by admission control and retired
	// to the user-site with the typed SHED fate.
	Shed atomic.Int64
	// BudgetExpired counts clones terminated (or forwards suppressed) for
	// exceeding their wire-carried budget: deadline, hop quota, or clone
	// quota.
	BudgetExpired atomic.Int64
	// RowsClipped counts result rows discarded by the budget's row quota.
	RowsClipped atomic.Int64
	// Stopped counts clones terminated by the user-site's active-stop
	// broadcast: the typed STOPPED retirement.
	Stopped atomic.Int64

	// Failovers counts clone forwards re-resolved to another replica of
	// the destination site after the retry policy exhausted against the
	// first pick (server- and client-side sends alike).
	Failovers atomic.Int64
	// ReplicaReplays counts clone messages the user-site re-dispatched
	// to a surviving replica to resume the live CHT entries a crashed
	// replica stranded.
	ReplicaReplays atomic.Int64
	// StaleRejected counts result frames dropped because their replica
	// incarnation predates the sender's current registration (replies
	// from before a crash must not retire re-announced entries).
	StaleRejected atomic.Int64
	// DupRetired counts duplicate retirements of replayed CHT entries
	// absorbed by the user-site (the crashed replica's report arrived
	// after all, on top of the replay's).
	DupRetired atomic.Int64

	// RowsScanned counts tuples read by the operator pipeline's scans
	// during node-query evaluation; RowsEmitted counts the distinct rows
	// the pipelines produced. Their ratio is the per-site selectivity.
	RowsScanned atomic.Int64
	RowsEmitted atomic.Int64
	// PushdownHits counts node-query result tables reduced in place by a
	// pushed-down plan fragment (partial aggregation or top-K) before
	// shipping; PushdownBytesSaved accumulates the cell bytes the
	// reduction removed from the wire.
	PushdownHits       atomic.Int64
	PushdownBytesSaved atomic.Int64
	// ShipDataBytes accumulates the encoded bytes of every document
	// downloaded from another site: every document the user-site's proxy
	// evaluates (Section 7.1).
	ShipDataBytes atomic.Int64
	// DocBytes accumulates raw content bytes of documents parsed by the
	// Database Constructor.
	DocBytes atomic.Int64

	// PagesRead counts heap pages read from disk by the persistent
	// store's buffer pool (misses; hits touch no counter).
	PagesRead atomic.Int64
	// PagesEvicted counts unpinned pool frames dropped to make room.
	PagesEvicted atomic.Int64
	// IndexHits counts contains-predicates decided by the store's
	// persisted text index instead of a full text scan.
	IndexHits atomic.Int64
	// ColdOpens counts server starts that opened an existing store
	// (open-not-rebuild: no document was fetched or parsed).
	ColdOpens atomic.Int64
	// StoreBuilds counts server starts that had to materialize the store
	// from source documents (first run, or damaged-store recovery).
	StoreBuilds atomic.Int64
	// DBCacheEvicted counts retained databases dropped by the
	// Options.DBCacheEntries LRU bound.
	DBCacheEvicted atomic.Int64

	// DocsInvalidated counts documents whose cached state (retained
	// database, store entry, text-index postings) was invalidated by a
	// web mutation — entry-level eviction, never a full rebuild.
	DocsInvalidated atomic.Int64
	// WatchesRegistered counts standing continuous-query registrations
	// accepted from user-sites.
	WatchesRegistered atomic.Int64
	// DeltasSent counts DELTA notifications dispatched to watch
	// collectors after mutations.
	DeltasSent atomic.Int64
}

// Snapshot is a plain-integer copy of Metrics.
type Snapshot struct {
	Evaluations     int64
	PureRoutes      int64
	DocsParsed      int64
	DBCacheHits     int64
	DeadEnds        int64
	DupDropped      int64
	DupRewritten    int64
	ClonesForwarded int64
	LocalClones     int64
	ResultMsgs      int64
	Terminated      int64
	ForwardFailed   int64
	Bounced         int64
	HopsClamped     int64
	DocErrors       int64

	Retries           int64
	RecoveredByBounce int64
	CHTReaped         int64

	ConnDialed       int64
	ConnReused       int64
	ConnStale        int64
	ParseCacheHits   int64
	ParseCacheMisses int64
	DBBuildCoalesced int64
	ForwardNanos     int64

	QueueDepth     int64
	QueueHighWater int64
	Shed           int64
	BudgetExpired  int64
	RowsClipped    int64
	Stopped        int64

	Failovers      int64
	ReplicaReplays int64
	StaleRejected  int64
	DupRetired     int64

	RowsScanned        int64
	RowsEmitted        int64
	PushdownHits       int64
	PushdownBytesSaved int64
	ShipDataBytes      int64
	DocBytes           int64

	PagesRead      int64
	PagesEvicted   int64
	IndexHits      int64
	ColdOpens      int64
	StoreBuilds    int64
	DBCacheEvicted int64

	DocsInvalidated   int64
	WatchesRegistered int64
	DeltasSent        int64
}

// Snapshot returns a consistent-enough copy for reporting (individual
// loads are atomic; cross-field skew is harmless for counters). Like
// Absorb it copies by reflection, each Snapshot field from the Metrics
// counter of its name, so adding a counter needs no matching edit here.
func (m *Metrics) Snapshot() Snapshot {
	var out Snapshot
	sv := reflect.ValueOf(&out).Elem()
	mv := reflect.ValueOf(m).Elem()
	for i := 0; i < sv.NumField(); i++ {
		c := mv.FieldByName(sv.Type().Field(i).Name).Addr().Interface().(*atomic.Int64)
		sv.Field(i).SetInt(c.Load())
	}
	return out
}

// Absorb adds every counter of o into m. The deployment aggregates its
// per-site instances through this, so adding a Metrics field never needs
// a matching edit here.
func (m *Metrics) Absorb(o *Metrics) {
	mv := reflect.ValueOf(m).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < mv.NumField(); i++ {
		c, ok := mv.Field(i).Addr().Interface().(*atomic.Int64)
		if !ok {
			continue
		}
		c.Add(ov.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
}

// book adds the counts of one processed clone message.
func (m *Metrics) book(n nodeproc.Counts) {
	m.Evaluations.Add(n.Evaluations)
	m.PureRoutes.Add(n.Routes)
	m.DeadEnds.Add(n.DeadEnds)
	m.DupDropped.Add(n.DupDropped)
	m.DupRewritten.Add(n.DupRewritten)
	m.DocErrors.Add(n.LoadFailed)
	m.RowsScanned.Add(n.Scanned)
	m.RowsEmitted.Add(n.Emitted)
	m.RowsClipped.Add(n.Clipped)
	m.HopsClamped.Add(n.HopsClamped)
	m.BudgetExpired.Add(n.BudgetSpent)
	m.PushdownHits.Add(n.PushdownHits)
	m.PushdownBytesSaved.Add(n.PushdownBytes)
	m.ParseCacheHits.Add(n.ParseHits)
	m.ParseCacheMisses.Add(n.ParseMisses)
}

// Add returns the field-wise sum of two snapshots.
func (s Snapshot) Add(o Snapshot) Snapshot {
	sv := reflect.ValueOf(&s).Elem()
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(sv.Field(i).Int() + ov.Field(i).Int())
	}
	return s
}
