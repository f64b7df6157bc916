// Package wire defines the messages that WEBDIS components exchange and
// their encoding. The original system forwarded web-query objects between
// Java daemons using Java object serialization; this reproduction uses
// length-prefixed gob frames over any net.Conn, so the same messages flow
// over the simulated fabric and over TCP.
//
// Three conversations use these messages:
//
//   - user-site → query-server: CloneMsg, the web-query clone of Figures 3
//     and 4 (also query-server → query-server when forwarding);
//   - query-server → user-site: ResultMsg, carrying node-query results
//     together with the CHT additions of the Current Hosts Table protocol
//     (Section 2.7.1) — shipped together per optimization 3 of Section 3.2;
//   - user-site/query-server → document host: FetchReq/FetchResp, used by
//     the centralized data-shipping baseline to download documents.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"webdis/internal/netsim"
	"webdis/internal/nodequery"
)

// QueryID globally identifies a user query (paper Section 4.1): the user's
// name, the transport endpoint of the user-site's Result Collector (the
// paper's IP address + listening port number), and a locally unique query
// number.
type QueryID struct {
	User string
	Site string // result-collector endpoint name
	Num  int
}

func (id QueryID) String() string {
	return fmt.Sprintf("%s@%s#%d", id.User, id.Site, id.Num)
}

// SpanID identifies one clone message in a query's causal trace: the
// endpoint that created the message and a sequence number unique at that
// origin. The zero SpanID means the message is untraced. Span ids ride on
// every CloneMsg (and are echoed on ResultMsg) so that the user-site — or
// the deployment-level collector — can stitch the full clone tree back
// together from site-local journals (package trace).
type SpanID struct {
	Origin string // endpoint that created the clone message
	Seq    int64  // unique per origin
}

// IsZero reports whether the span id is unset (tracing off).
func (s SpanID) IsZero() bool { return s.Origin == "" && s.Seq == 0 }

func (s SpanID) String() string {
	if s.IsZero() {
		return "-"
	}
	return fmt.Sprintf("%s#%d", s.Origin, s.Seq)
}

// SpanLink names one clone spawned while processing a traced clone: its
// span id and the site it was forwarded to. ResultMsg carries the links
// so the user-site can stitch the causal tree from reports alone, even
// over TCP where the remote site journals are not directly readable.
type SpanLink struct {
	Span SpanID
	Site string // destination site of the spawned clone
}

// State is the processing state of a query clone as defined in Section
// 2.7.1: the number of node-queries still to be processed and the
// remaining part of the current PRE (as its canonical string).
type State struct {
	NumQ int
	Rem  string
}

func (s State) String() string { return fmt.Sprintf("(%d, %s)", s.NumQ, s.Rem) }

// Key returns a map key identifying the state.
func (s State) Key() string { return fmt.Sprintf("%d|%s", s.NumQ, s.Rem) }

// StageMsg is one (PRE, node-query) stage of a web-query in transit.
// Export lists the document columns the stage contributes to the clone
// environment when it advances (correlated stages).
type StageMsg struct {
	PRE    string
	Query  *nodequery.Query
	Export []string
}

// CloneMsg is a web-query clone in transit. It carries only the remaining
// stages (the query is "successively shortened"): Stages[0] is the current
// stage, with Rem — not Stages[0].PRE — as the still-to-be-satisfied part
// of its PRE. Base is the index of Stages[0] in the original query, used
// to label results. Dest lists the node URLs at the destination site that
// the clone applies to (optimization 4 of Section 3.2: one message per
// site, many destination nodes).
type CloneMsg struct {
	ID     QueryID
	Dest   []DestNode
	Rem    string
	Base   int
	Stages []StageMsg
	Hops   int // links traversed so far; for traces and response-time stats
	// Env carries upstream document bindings ("var.col" -> value) for
	// correlated stages (see nodequery.Query.Outer). Clones with different
	// environments are different clones: the log table and the batcher
	// both key on EnvKey.
	Env map[string]string
	// Span identifies this clone message in the query's causal trace and
	// Parent the clone message it was forwarded from (zero for a root
	// dispatch). Zero Span means tracing is off for this message.
	Span   SpanID
	Parent SpanID
	// Budget is the query's resource budget, inherited (and decremented)
	// by every clone spawned from this one. The zero Budget is unlimited.
	Budget Budget
	// Frag, when non-nil, is the plan fragment the cost-based planner
	// pushed into this clone: the output spec whose partial form every
	// site applies to the named stage's raw rows before shipping them.
	// Children inherit it unchanged. Sites ignore fragments whose
	// Version they do not know.
	Frag *PlanFrag
	// Hints carries site statistics the sender had observed or been told
	// about (piggybacked from result frames), so downstream sites can
	// make ship-query-vs-ship-data decisions about edges they have never
	// seen. Bounded to MaxHints entries; children inherit the merge of
	// the clone's hints and the forwarder's own observations.
	Hints []SiteStat
}

// PlanFragVersion is the current plan-fragment format. Encoded in every
// PlanFrag; servers apply only fragments whose version they recognize,
// so a mixed-version deployment degrades to naive shipping rather than
// mis-folding rows.
const PlanFragVersion = 1

// MaxHints bounds the piggybacked statistics list on clones and
// reports.
const MaxHints = 64

// PlanFrag is a pushed-down plan fragment riding a clone: the final
// stage's output spec, which a site turns into a partial hash-aggregate
// (or per-node top-K) over that stage's result rows before they ship.
// Gob-plain data, like the node-queries it travels beside.
type PlanFrag struct {
	Version int
	Stage   int // index of the stage the fragment transforms (the final stage)
	Spec    nodequery.OutputSpec
}

// Applies reports whether the fragment is one this build understands
// and targets the given stage.
func (f *PlanFrag) Applies(stage int) bool {
	return f != nil && f.Version == PlanFragVersion && f.Stage == stage
}

// SiteStat is one site's observed workload statistics: the planner's
// raw material. Sites attach their own stat to result frames
// (Report.Stats); the user-site accumulates them across queries and
// re-attaches them to later clones as CloneMsg.Hints, closing the
// feedback loop the paper's cost model needs.
type SiteStat struct {
	Site        string
	Docs        int64 // documents parsed into virtual relations
	DocBytes    int64 // raw content bytes of those documents
	Evals       int64 // node-query evaluations run
	RowsScanned int64 // tuples read by the operator pipeline
	RowsEmitted int64 // distinct rows produced
	Fanout      int64 // forward targets observed (link fan-out)
}

// AvgDocBytes returns the mean observed document size, or 0 when the
// site has parsed nothing yet (the "no statistics" cold start that
// defaults the planner to ship-query).
func (s SiteStat) AvgDocBytes() int64 {
	if s.Docs == 0 {
		return 0
	}
	return s.DocBytes / s.Docs
}

// MergeStat folds b into a (same site): counters add.
func MergeStat(a, b SiteStat) SiteStat {
	a.Docs += b.Docs
	a.DocBytes += b.DocBytes
	a.Evals += b.Evals
	a.RowsScanned += b.RowsScanned
	a.RowsEmitted += b.RowsEmitted
	a.Fanout += b.Fanout
	return a
}

// Budget carries a query's resource limits on the wire, following the
// per-query hop/time budgets that federated-search mediators and the DXQ
// network spec treat as first-class protocol elements. Each clone
// inherits its parent's budget with the consumed portion subtracted, so
// enforcement is local: a site can terminate an expired or exhausted
// clone without any coordination beyond the typed EXPIRED retirement
// that keeps CHT accounting exact.
//
// The quota fields use a three-way sentinel convention: positive means
// remaining quota, zero means unlimited (so the zero Budget changes
// nothing), and negative means exhausted — needed because decrementing a
// quota of 1 must not land on the "unlimited" zero.
type Budget struct {
	// Deadline is the absolute wall-clock deadline in Unix nanoseconds
	// (0 = none). Absolute rather than relative so it survives
	// forwarding without per-hop clock arithmetic; sites share the
	// simulated deployment's clock.
	Deadline int64
	// Hops is the remaining hop quota: how many more links the query may
	// traverse below this clone.
	Hops int
	// Clones is the remaining clone-spawn quota: how many more clone
	// messages the whole subtree below this clone may create. A parent
	// divides its remaining quota among the clones it spawns.
	Clones int
	// Rows is the remaining result-row quota for the subtree.
	Rows int
	// Weight is the query's scheduling weight (0 = default weight 1):
	// its share of a site's service under weighted fair queueing.
	Weight int
	// FirstN asks for the first N result rows only: once the user-site
	// has merged N rows it broadcasts a StopMsg along the CHT's live
	// entries, actively terminating in-flight clones with typed STOPPED
	// fates (versus the row quota Rows, which merely clips rows
	// server-side while the traversal runs to completion). FirstN is
	// enforced at the user-site; it rides the wire so ablations can
	// compare the two policies with identical budgets. 0 means no limit.
	FirstN int
}

// IsZero reports whether the budget is entirely unlimited.
func (b Budget) IsZero() bool {
	return b.Deadline == 0 && b.Hops == 0 && b.Clones == 0 && b.Rows == 0 &&
		b.Weight == 0 && b.FirstN == 0
}

// ExpiredAt reports whether the deadline has passed at the given time.
func (b Budget) ExpiredAt(now int64) bool {
	return b.Deadline != 0 && now > b.Deadline
}

// Spend returns the budget a child clone inherits after one hop: the hop
// quota decremented (1 spends to -1, exhausted, never to the unlimited
// 0). Deadline, Rows, Clones and Weight carry over; callers divide the
// clone quota separately because it is split among siblings, not
// inherited whole.
func (b Budget) Spend() Budget {
	if b.Hops > 0 {
		if b.Hops == 1 {
			b.Hops = -1
		} else {
			b.Hops--
		}
	}
	return b
}

// TakeRows charges n result rows to a row quota in the Budget sentinel
// convention (positive remaining, 0 unlimited, negative exhausted). It
// returns how many of the rows may be kept and the quota that remains.
func TakeRows(quota, n int) (keep, left int) {
	switch {
	case quota == 0:
		return n, 0
	case quota < 0:
		return 0, quota
	case n >= quota:
		return quota, -1
	}
	return n, quota - n
}

// EnvKey returns a canonical fingerprint of an environment, used in
// log-table and batching keys. The empty environment yields "".
func EnvKey(env map[string]string) string {
	if len(env) == 0 {
		return ""
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(env[k])
		b.WriteByte('\x00')
	}
	return b.String()
}

// ParseEnvKey inverts EnvKey: it rebuilds the environment map from the
// canonical fingerprint. Values produced by EnvKey never contain the
// \x00 separator (environment values are document column strings), so
// the split is unambiguous. Returns nil for "".
func ParseEnvKey(key string) map[string]string {
	if key == "" {
		return nil
	}
	env := make(map[string]string)
	for _, pair := range strings.Split(strings.TrimSuffix(key, "\x00"), "\x00") {
		if eq := strings.IndexByte(pair, '='); eq >= 0 {
			env[pair[:eq]] = pair[eq+1:]
		}
	}
	return env
}

// DestNode is one destination node of a clone message, tagged with the
// serial of its CHT entry. The paper identifies CHT entries by (URL,
// query-state) alone; that under-identifies clone instances — a revisit
// loop can put two identically keyed entries in flight whose additions
// and retirements interleave into a false "all retired" reading — so this
// implementation gives every forwarded clone instance of a query a
// unique (origin, seq) serial that the processing server echoes back in
// its report (see the client package's completion-soundness discussion).
type DestNode struct {
	URL    string
	Origin string // endpoint that created the CHT entry
	Seq    int64  // unique per origin within one query
}

// State returns the clone's CHT state (num_q, rem).
func (c *CloneMsg) State() State {
	return State{NumQ: len(c.Stages), Rem: c.Rem}
}

// Retirements returns one CHT update per destination of c, retiring the
// destination's entry without children: the report for a clone that will
// not be processed.
func (c *CloneMsg) Retirements() []CHTUpdate {
	st := c.State()
	updates := make([]CHTUpdate, len(c.Dest))
	for i, d := range c.Dest {
		updates[i].Processed = CHTEntry{Node: d.URL, State: st, Origin: d.Origin, Seq: d.Seq}
	}
	return updates
}

// CHTEntry names one clone instance currently hosted at a node, with the
// clone's state — one row of the user-site's Current Hosts Table. Origin
// and Seq uniquely identify the instance (see DestNode).
type CHTEntry struct {
	Node   string
	State  State
	Origin string
	Seq    int64
}

// Key returns the CHT map key: node, state and instance serial.
func (e CHTEntry) Key() string {
	return fmt.Sprintf("%s§%s§%s§%d", e.Node, e.State.Key(), e.Origin, e.Seq)
}

// CHTUpdate reports the processing of one node: the entry being retired
// (the "topmost entry" the user-site marks deleted) and the entries for
// the clones forwarded from it (merged into the table).
type CHTUpdate struct {
	Processed CHTEntry
	Children  []CHTEntry
}

// NodeTable carries the rows a node-query produced at one node.
type NodeTable struct {
	Node  string
	Stage int // index of the node-query in the original web-query
	Cols  []string
	Rows  [][]string
	// Env is the EnvKey of the clone environment the rows were computed
	// under. One (Node, Stage, Env) triple is one *contribution*: its
	// rows are deterministic, so the user-site deduplicates whole
	// contributions when folding aggregates. Empty on frames from
	// pre-planner builds, which never carry Partial tables either.
	Env string
	// Partial marks rows that are partial-aggregate state produced by a
	// pushed-down PlanFrag (group keys then one state cell per
	// aggregate) rather than raw result rows.
	Partial bool
}

// Report is the outcome of processing one CloneMsg: its results, CHT
// updates and span context. It is the unit the server-side result
// batcher coalesces — a batched ResultMsg carries many Reports in one
// frame, each applied independently at the user-site.
type Report struct {
	Updates []CHTUpdate
	Tables  []NodeTable
	// Expired marks a report whose entries were retired because the
	// clone exceeded its Budget (deadline or quota) rather than being
	// processed: the typed EXPIRED terminate. The CHT arithmetic is
	// identical — entries retire, no children — but the user-site
	// records the spans as expired, not processed, so trace fates
	// reconcile exactly.
	Expired bool
	// Stopped marks a report whose entries were retired because the
	// user-site broadcast a StopMsg (active early termination): the
	// typed STOPPED terminate, same CHT arithmetic as Expired.
	Stopped bool
	// Span is the span of the clone message whose processing produced
	// this report (zero when untraced); Site and Hop locate it.
	Span SpanID
	Site string
	Hop  int
	// Spawned lists the clone messages forwarded during that processing.
	Spawned []SpanLink
	// Stats piggybacks the processing site's observed statistics (and
	// any peers' it learned of) back to the user-site. Attached only
	// when the planner is enabled, so classic deployments keep their
	// exact wire profile.
	Stats []SiteStat
}

// Rows returns the number of result rows the report carries (the size
// measure the batcher's MaxRows bound counts).
func (r *Report) Rows() int {
	n := 0
	for _, t := range r.Tables {
		n += len(t.Rows)
	}
	return n
}

// ResultMsg is the query-server → user-site message: all results and CHT
// updates from processing one CloneMsg, batched (Section 3.2, item 3).
// For traced clones it also carries the span context of the processed
// clone and the spans of the clones spawned from it, so the user-site can
// stitch the causal tree without reading remote journals.
//
// Two layouts share the struct: the classic one-report-per-message form
// uses the flat fields directly (the seed wire format), and the batched
// form (ServerOptions.ResultBatch) leaves those zero and carries the
// coalesced Reports slice instead. Receivers iterate with Each and never
// look at the layout.
type ResultMsg struct {
	ID      QueryID
	Updates []CHTUpdate
	Tables  []NodeTable
	// Expired and Stopped type the retirement (see Report).
	Expired bool
	Stopped bool
	// Span is the span of the clone message whose processing produced
	// this report (zero when untraced); Site and Hop locate it.
	Span SpanID
	Site string
	Hop  int
	// Spawned lists the clone messages forwarded during that processing.
	Spawned []SpanLink
	// Reports, when non-empty, is a size/age-bounded batch of reports
	// from distinct clone processings at one site, coalesced into this
	// single frame by the server's result batcher. The flat fields above
	// are then zero.
	Reports []Report
	// From and Inc identify the replica that produced the report when
	// the deployment is replicated: the replica's listen endpoint and
	// its registration incarnation. The user-site drops frames whose
	// incarnation is older than the membership's current one for that
	// endpoint — a restarted replica's stale in-flight replies must not
	// retire entries the new incarnation re-announces. Both zero on
	// unreplicated deployments, which accept every frame as before.
	From string
	Inc  int64
	// Stats is the flat-form counterpart of Report.Stats.
	Stats []SiteStat
}

// Each visits every report the message carries — the batched Reports
// when present, otherwise the flat single-report fields.
func (m *ResultMsg) Each(fn func(*Report)) {
	if len(m.Reports) > 0 {
		for i := range m.Reports {
			fn(&m.Reports[i])
		}
		return
	}
	fn(&Report{
		Updates: m.Updates, Tables: m.Tables,
		Expired: m.Expired, Stopped: m.Stopped,
		Span: m.Span, Site: m.Site, Hop: m.Hop, Spawned: m.Spawned,
		Stats: m.Stats,
	})
}

// FetchReq asks a document host for the content of one URL. It is used
// only by the centralized data-shipping baseline — the distributed engine
// never moves document bytes off their home site.
type FetchReq struct {
	URL string
}

// FetchResp returns the raw document bytes, or an error string for an
// unknown URL.
type FetchResp struct {
	URL     string
	Content []byte
	Err     string
}

// BounceMsg returns an undeliverable clone to the user-site. Reason says
// why: BounceNoServer when the destination site runs no query server (the
// paper's Section 7.1 migration path), BounceRetryExhausted when the site
// should be reachable but every forward attempt failed (fault-tolerant
// degraded mode: the engine falls back from query shipping to data
// shipping for that one edge). The user-site's fallback then processes
// the clone centrally — fetching the documents and evaluating locally —
// and re-enters distributed mode at the next participating site.
type BounceMsg struct {
	Clone  *CloneMsg
	Reason string
}

// Bounce reasons.
const (
	BounceNoServer       = "no-server"
	BounceRetryExhausted = "retry-exhausted"
)

// ShedMsg returns a refused clone to the user-site: the typed SHED
// bounce of admission control, distinct from the fault-path BounceMsg.
// A bounced clone is still owed processing (the fallback evaluates it
// centrally); a shed clone is refused outright — the site was over its
// high watermark and declined to start a NEW query. The user-site
// retires the clone's CHT entries and surfaces Query.Shed so the caller
// can retry later, rather than silently absorbing the refusal into the
// degraded-mode path.
type ShedMsg struct {
	Clone *CloneMsg
	Site  string // site that refused the clone
}

// TuneMsg is the user-site → query-server feedback of the adaptive
// result batcher: the observed consumer backpressure asks the site to
// re-bound its per-query result batching. MaxRows and MaxAgeMicros
// override the server's configured BatchOptions for this query; zero
// values revert to the configured defaults. A slow consumer (deep
// ConsumerLag) asks for large, late frames — fewer messages, better
// compression — while a caught-up consumer asks the bounds back down so
// first-row latency stays low. Servers without batching enabled ignore
// the message; it is advisory, so mixed deployments interoperate.
type TuneMsg struct {
	ID           QueryID
	MaxRows      int
	MaxAgeMicros int64
}

// StopMsg is the user-site → query-server active-termination signal: the
// user has enough answers (Budget.FirstN satisfied, or the submitting
// context was cancelled), so still-running clones of the query should
// terminate now instead of starving passively against a closed collector
// (paper Section 2.8). A server receiving it marks the query stopped;
// queued and later-arriving clones of that query retire their CHT entries
// with typed STOPPED reports — no evaluation, no children — so the query
// still completes exactly through the CHT, just sooner and cheaper.
// Reason is free text for traces ("first-n satisfied", "cancelled").
type StopMsg struct {
	ID     QueryID
	Reason string
}

// WatchVersion is the current watch-protocol format. Encoded in every
// WatchMsg and DeltaMsg so mixed-version deployments degrade cleanly
// (the PlanFrag precedent): a server that does not understand the
// version ignores the registration, a client drops deltas it cannot
// parse, and one-shot queries are untouched either way.
const WatchVersion = 1

// WatchMsg registers (or cancels) a standing query at a query server:
// the user-site asks to be notified whenever the site's documents
// change. ID names the watch; ID.Site is the endpoint DeltaMsg
// notifications are delivered to — the watch's own collector, exactly
// like a query's Result Collector.
type WatchMsg struct {
	Version int
	ID      QueryID
	// Cancel deregisters the watch instead.
	Cancel bool
}

// Applies reports whether the message is of a version this build
// understands.
func (m *WatchMsg) Applies() bool { return m != nil && m.Version == WatchVersion }

// DeltaMsg is the site → user-site change notification of a registered
// watch: the web mutated at this site, and the named documents' virtual
// relations are no longer what the watch last saw. Seq is a monotonic
// per-watch, per-site sequence number. Edited lists documents whose
// content changed but whose outgoing links are intact (re-evaluation of
// the documents themselves suffices); Rewired lists documents whose link
// structure changed or that disappeared (the PRE frontiers reachable
// through them need re-traversal). The user-site's Watch coalesces
// notifications and re-dispatches only the affected frontiers, then
// emits typed add/remove row deltas with its own monotonic epoch.
type DeltaMsg struct {
	Version int
	ID      QueryID
	Site    string
	Seq     int64
	Edited  []string
	Rewired []string
}

// Applies reports whether the message is of a version this build
// understands.
func (m *DeltaMsg) Applies() bool { return m != nil && m.Version == WatchVersion }

// Message kind strings, used for per-kind traffic accounting.
const (
	KindClone     = "clone"
	KindResult    = "result"
	KindBounce    = "bounce"
	KindShed      = "shed"
	KindStop      = "stop"
	KindFetchReq  = "fetch-req"
	KindFetchResp = "fetch-resp"
	KindTune      = "tune"
	KindWatch     = "watch"
	KindDelta     = "delta"
)

// envelope wraps every message so a single gob stream can carry any kind.
type envelope struct {
	Kind      string
	Clone     *CloneMsg
	Result    *ResultMsg
	Bounce    *BounceMsg
	Shed      *ShedMsg
	Stop      *StopMsg
	FetchReq  *FetchReq
	FetchResp *FetchResp
	Tune      *TuneMsg
	Watch     *WatchMsg
	Delta     *DeltaMsg
}

// wrap classifies msg into its envelope, the shared front half of Send
// and the size helpers.
func wrap(msg any) (envelope, error) {
	switch m := msg.(type) {
	case *CloneMsg:
		return envelope{Kind: KindClone, Clone: m}, nil
	case *ResultMsg:
		return envelope{Kind: KindResult, Result: m}, nil
	case *BounceMsg:
		return envelope{Kind: KindBounce, Bounce: m}, nil
	case *ShedMsg:
		return envelope{Kind: KindShed, Shed: m}, nil
	case *StopMsg:
		return envelope{Kind: KindStop, Stop: m}, nil
	case *FetchReq:
		return envelope{Kind: KindFetchReq, FetchReq: m}, nil
	case *FetchResp:
		return envelope{Kind: KindFetchResp, FetchResp: m}, nil
	case *TuneMsg:
		return envelope{Kind: KindTune, Tune: m}, nil
	case *WatchMsg:
		return envelope{Kind: KindWatch, Watch: m}, nil
	case *DeltaMsg:
		return envelope{Kind: KindDelta, Delta: m}, nil
	}
	return envelope{}, fmt.Errorf("wire: cannot send %T", msg)
}

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 64 << 20

// frameHeaderLen is the v2 frame header: 4-byte length prefix plus the
// kind and flags bytes the length covers.
const frameHeaderLen = 6

// helloMagic opens the 4-byte version hello and ack. The first byte is
// deliberately above maxFrame's high byte (0x04), so it can never be
// confused with a v1 length prefix.
var helloMagic = [3]byte{0xAE, 'W', 'D'}

// FramedOptions configure a framed session's wire version and
// instrumentation. The zero value offers and accepts the newest format
// (v2, the binary codec), falling back per connection when the peer
// does not.
type FramedOptions struct {
	// Offer is the highest wire version this side proposes when it sends
	// first on the connection (the dialing side). 0 means MaxWireVersion;
	// 1 pins classic framed gob and sends no handshake at all, so v1
	// deployments keep their exact wire profile.
	Offer int
	// Accept caps the version granted to a peer's hello when this side
	// receives first (the accepting side). 0 means MaxWireVersion; 1
	// answers every hello with v1, pinning the session to gob.
	Accept int
	// OnFrame, when set, observes every v2 frame sent: its kind and the
	// bytes it occupied on the wire (after compression).
	OnFrame func(kind string, wireBytes int)
}

func (o FramedOptions) offer() int {
	return clampVersion(o.Offer)
}

func (o FramedOptions) accept() int {
	return clampVersion(o.Accept)
}

func clampVersion(v int) int {
	if v <= 0 || v > MaxWireVersion {
		return MaxWireVersion
	}
	return v
}

// Framed wraps a connection with a persistent wire session. The session
// negotiates its format version once, before the first frame:
//
//   - A dialer offering v2 writes the 4-byte hello {0xAE 'W' 'D' ver}
//     pipelined with its first frame — always encoded at version 2, the
//     baseline every hello-capable peer decodes — in a single write, so
//     the handshake adds no round trip and no extra fault-injection
//     draw to first delivery. The 4-byte ack carrying the granted
//     version (min of offered and accepted) is read lazily before the
//     second frame — or at once by a sender that calls Settle; the
//     session speaks the granted version from then on.
//   - A receiver classifies the connection by its first four bytes: the
//     hello magic starts a handshake — the pipelined frame is decoded
//     first and the ack written only after it arrives whole, so a lost
//     ack can never lose a frame that was in fact delivered. A receiver
//     that reads with ReceiveUnacked writes the ack later still, when it
//     comes back to the session (its next receive or Send), and closes
//     the connection instead if it will not take the session's first
//     message: the dialer's Settle fails, which is how a Result
//     Collector refuses a report for a query it no longer routes
//     (Section 2.8's failed dispatch). Anything
//     else must be a v1 length prefix (maxFrame caps its first byte at
//     0x04), so the session is gob and those four bytes are replayed as
//     the first frame's prefix. Plain per-dial senders and v1-pinned
//     peers therefore interoperate unchanged, with no handshake on the
//     wire.
//
// Version 2 frames carry the hand-rolled binary codec (see codec.go);
// version 1 keeps the persistent gob session of PR 3, whose type
// descriptors travel once per connection.
//
// A Framed connection is a session with an error latch: the first Send
// or Receive failure — including a short read mid-frame — poisons it,
// and every later call fails fast with ErrPoisoned wrapping the original
// error. A poisoned session reports Healthy() == false, which the
// connection pool checks before re-pooling, so a torn frame can never be
// followed by a delivery on the same connection. One goroutine sends and
// one receives; neither method is safe for concurrent use with itself.
//
// Interop: a sender using plain Send opens a fresh gob stream per frame,
// which a Framed receiver handles (each dial-per-message connection is a
// one-frame v1 session). The reverse — plain Receive of a Framed
// sender's second frame — does not work, so receivers wrap first,
// senders only ever reuse connections through a pool that wraps.
type Framed struct {
	net.Conn
	opts FramedOptions

	// ver is the negotiated wire version; verSet latches once the
	// version is settled: immediately for v1 offers and classified
	// receivers, at ack time for hello-sending dialers.
	ver    int
	verSet bool
	// txHello records that the hello went out pipelined with the first
	// frame; the granted-version ack is read lazily before the second
	// frame, so the handshake adds no round trip to first delivery.
	txHello bool
	// rxGrant is the version granted to the dialer's hello, acked once
	// the pipelined first frame has decoded: at once, or — when the frame
	// was read by ReceiveUnacked — as rxAckOwed, by this side's next
	// receive or Send, whichever goroutine gets there first (hence the
	// atomic).
	rxGrant   byte
	rxAckOwed atomic.Uint32
	// rxFirstV2 marks that the next inbound frame is the pipelined one,
	// which is always encoded at version 2 regardless of the grant.
	rxFirstV2 bool

	// v1 session state: persistent gob codec over length-prefixed frames.
	encBuf bytes.Buffer
	enc    *gob.Encoder
	fr     frameReader
	dec    *gob.Decoder

	// v2 session state: per-direction codecs with interned string tables,
	// plus reusable frame buffers (send, receive, inflate, compress).
	enc2 *encoder
	dec2 *decoder
	rbuf []byte
	dbuf []byte
	cbuf bytes.Buffer

	failMu sync.Mutex
	fail   error
}

// NewFramed wraps conn in a persistent wire session with default
// options (offer and accept the newest version); wrapping a Framed
// connection returns it unchanged.
func NewFramed(conn net.Conn) *Framed {
	return NewFramedOpts(conn, FramedOptions{})
}

// NewFramedOpts wraps conn in a persistent wire session configured by
// opts. Wrapping a Framed connection returns it unchanged, keeping its
// original options — sessions negotiate once and never change shape.
func NewFramedOpts(conn net.Conn, opts FramedOptions) *Framed {
	if f, ok := conn.(*Framed); ok {
		return f
	}
	return &Framed{Conn: conn, opts: opts}
}

// Healthy reports whether the session can still carry frames: false
// once any Send or Receive has failed. The connection pool consults it
// on Put, so poisoned sessions are closed instead of re-pooled.
func (f *Framed) Healthy() bool {
	f.failMu.Lock()
	defer f.failMu.Unlock()
	return f.fail == nil
}

func (f *Framed) poison(err error) {
	f.failMu.Lock()
	if f.fail == nil {
		f.fail = err
	}
	f.failMu.Unlock()
}

func (f *Framed) latched() error {
	f.failMu.Lock()
	defer f.failMu.Unlock()
	if f.fail != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, f.fail)
	}
	return nil
}

// Settle blocks until the peer has taken the first frame of a session
// this side dialed: it reads the handshake ack now instead of before the
// second frame. It fails when the peer closed the connection rather than
// keep the session — a user-site that no longer routes the reported query.
// On a settled, v1 or unframed connection it returns nil at once.
func Settle(conn net.Conn) error {
	f, ok := conn.(*Framed)
	if !ok || f.verSet || !f.txHello {
		return nil
	}
	if err := f.latched(); err != nil {
		return err
	}
	if err := f.finishTx(); err != nil {
		f.poison(err)
		return err
	}
	return nil
}

// writeAck sends the handshake ack this side owes, if any.
func (f *Framed) writeAck() {
	if v := f.rxAckOwed.Swap(0); v != 0 {
		f.ack(byte(v))
	}
}

// ack tells the dialer its granted version.
func (f *Framed) ack(v byte) {
	ack := [4]byte{helloMagic[0], helloMagic[1], helloMagic[2], v}
	if _, err := f.Conn.Write(ack[:]); err != nil {
		// Only this session's future frames die — never one delivered.
		f.poison(fmt.Errorf("wire: handshake ack: %w", err))
	}
}

// finishTx settles a pipelined handshake on the sending side: it reads
// the granted-version ack the hello solicited. Called lazily before the
// second frame (or a first receive), by which point the ack has usually
// long since arrived — the handshake costs no round trip on the first
// delivery.
func (f *Framed) finishTx() error {
	offer := f.opts.offer()
	var ack [4]byte
	if _, err := io.ReadFull(f.Conn, ack[:]); err != nil {
		return fmt.Errorf("wire: handshake ack: %w", err)
	}
	if ack[0] != helloMagic[0] || ack[1] != helloMagic[1] || ack[2] != helloMagic[2] {
		return fmt.Errorf("%w: bad handshake ack", ErrCorrupt)
	}
	v := int(ack[3])
	if v < 1 || v > offer {
		return fmt.Errorf("%w: handshake granted version %d against offer %d", ErrCorrupt, v, offer)
	}
	f.ver, f.verSet = v, true
	return nil
}

// negotiateRx classifies an incoming connection by its first four bytes:
// the hello magic starts a handshake (the pipelined first frame is
// decoded before the ack is written), anything else is a v1 length
// prefix, replayed into the gob frame reader.
func (f *Framed) negotiateRx() error {
	var first [4]byte
	if _, err := io.ReadFull(f.Conn, first[:]); err != nil {
		return err // io.EOF for a connection closed before any traffic
	}
	if first[0] == helloMagic[0] && first[1] == helloMagic[1] && first[2] == helloMagic[2] {
		offered := int(first[3])
		if offered < 2 {
			// v1 peers never send a hello; an offer below 2 is noise.
			return fmt.Errorf("%w: hello offers version %d", ErrCorrupt, offered)
		}
		v := f.opts.accept()
		if offered < v {
			v = offered
		}
		f.rxGrant = byte(v)
		f.rxFirstV2 = true
		f.ver, f.verSet = v, true
		return nil
	}
	f.fr.pre = append(f.fr.pre[:0], first[:]...)
	f.ver, f.verSet = 1, true
	return nil
}

// frameReader feeds the persistent gob decoder the concatenated
// payloads of the connection's v1 frames, stripping the length
// prefixes. pre replays the bytes version detection consumed.
type frameReader struct {
	conn      net.Conn
	pre       []byte
	remaining int
}

func (r *frameReader) readFull(p []byte) error {
	for len(p) > 0 && len(r.pre) > 0 {
		n := copy(p, r.pre)
		r.pre, p = r.pre[n:], p[n:]
	}
	if len(p) == 0 {
		return nil
	}
	_, err := io.ReadFull(r.conn, p)
	return err
}

func (r *frameReader) Read(p []byte) (int, error) {
	for r.remaining == 0 {
		var lenbuf [4]byte
		if err := r.readFull(lenbuf[:]); err != nil {
			return 0, err
		}
		n := binary.BigEndian.Uint32(lenbuf[:])
		if n > maxFrame {
			return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
		}
		r.remaining = int(n)
	}
	if len(p) > r.remaining {
		p = p[:r.remaining]
	}
	if len(r.pre) > 0 {
		n := copy(p, r.pre)
		r.pre = r.pre[n:]
		r.remaining -= n
		return n, nil
	}
	n, err := r.conn.Read(p)
	r.remaining -= n
	return n, err
}

func (f *Framed) send(env *envelope) error {
	f.writeAck()
	if err := f.latched(); err != nil {
		return err
	}
	if !f.verSet {
		if !f.txHello {
			if f.opts.offer() < 2 {
				f.ver, f.verSet = 1, true
			} else {
				// First frame: pipeline the hello with it in one write —
				// no round trip, and one fault-injection draw, exactly as
				// a bare v1 frame.
				err := f.sendV2(env, true)
				if err != nil {
					f.poison(err)
					return err
				}
				f.txHello = true
				return nil
			}
		} else if err := f.finishTx(); err != nil {
			f.poison(err)
			return err
		}
	}
	var err error
	if f.ver >= 2 {
		err = f.sendV2(env, false)
	} else {
		err = f.sendV1(env)
	}
	if err != nil {
		f.poison(err)
	}
	return err
}

func (f *Framed) sendV1(env *envelope) error {
	if f.enc == nil {
		f.enc = gob.NewEncoder(&f.encBuf)
	}
	f.encBuf.Reset()
	if err := f.enc.Encode(env); err != nil {
		return fmt.Errorf("wire: encode %s: %w", env.Kind, err)
	}
	payload := f.encBuf.Bytes()
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	copy(frame[4:], payload)
	if err := writeFrame(f.Conn, env.Kind, frame); err != nil {
		return err
	}
	return nil
}

func (f *Framed) sendV2(env *envelope, withHello bool) error {
	if f.enc2 == nil {
		f.enc2 = newEncoder()
	}
	code, ok := kindCode(env.Kind)
	if !ok {
		return fmt.Errorf("wire: cannot send kind %q", env.Kind)
	}
	e := f.enc2
	e.buf = e.buf[:0]
	start := 0
	if withHello {
		e.buf = append(e.buf, helloMagic[0], helloMagic[1], helloMagic[2], byte(f.opts.offer()))
		start = 4
	}
	e.buf = append(e.buf, 0, 0, 0, 0, code, 0)
	if err := encodeEnvelope(e, env); err != nil {
		return err
	}
	frame := e.buf
	if env.Kind == KindResult && len(frame)-start-frameHeaderLen >= compressMin {
		f.cbuf.Reset()
		f.cbuf.Write(frame[:start])
		f.cbuf.Write([]byte{0, 0, 0, 0, code, flagCompressed})
		if compressPayload(&f.cbuf, frame[start+frameHeaderLen:]) {
			frame = f.cbuf.Bytes()
		}
	}
	binary.BigEndian.PutUint32(frame[start:start+4], uint32(len(frame)-start-4))
	if err := writeFrame(f.Conn, env.Kind, frame); err != nil {
		return err
	}
	if f.opts.OnFrame != nil {
		f.opts.OnFrame(env.Kind, len(frame)-start)
	}
	return nil
}

func (f *Framed) receive(holdAck bool) (any, error) {
	f.writeAck()
	if err := f.latched(); err != nil {
		return nil, err
	}
	if !f.verSet {
		var err error
		if f.txHello {
			err = f.finishTx() // this side dialed; settle our own hello first
		} else {
			err = f.negotiateRx()
		}
		if err != nil {
			if err != io.EOF {
				f.poison(err)
			}
			return nil, err
		}
	}
	if f.rxFirstV2 {
		f.rxFirstV2 = false
		msg, err := f.receiveV2()
		if err != nil {
			if err != io.EOF {
				f.poison(err)
			}
			return nil, err
		}
		// The pipelined frame arrived whole: now the dialer may learn its
		// granted version — or, held, once the caller has looked at msg.
		if holdAck {
			f.rxAckOwed.Store(uint32(f.rxGrant))
		} else {
			f.ack(f.rxGrant)
		}
		return msg, nil
	}
	var msg any
	var err error
	if f.ver >= 2 {
		msg, err = f.receiveV2()
	} else {
		msg, err = f.receiveV1()
	}
	if err != nil && err != io.EOF {
		f.poison(err)
	}
	return msg, err
}

func (f *Framed) receiveV1() (any, error) {
	if f.dec == nil {
		f.fr.conn = f.Conn
		f.dec = gob.NewDecoder(&f.fr)
	}
	var env envelope
	if err := f.dec.Decode(&env); err != nil {
		if err == io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	return unwrap(&env)
}

func (f *Framed) receiveV2() (any, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(f.Conn, lenbuf[:]); err != nil {
		if err == io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("%w: frame header: %v", ErrTruncated, err)
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if n < 2 {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrCorrupt, n)
	}
	if cap(f.rbuf) < int(n) {
		f.rbuf = make([]byte, n)
	}
	buf := f.rbuf[:n]
	if _, err := io.ReadFull(f.Conn, buf); err != nil {
		return nil, fmt.Errorf("%w: short frame: %v", ErrTruncated, err)
	}
	code, flags := buf[0], buf[1]
	payload := buf[2:]
	if flags&^flagCompressed != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
	}
	if flags&flagCompressed != 0 {
		var err error
		f.dbuf, err = inflatePayload(payload, f.dbuf)
		if err != nil {
			return nil, err
		}
		payload = f.dbuf
	}
	if f.dec2 == nil {
		f.dec2 = newDecoder()
	}
	f.dec2.reset(payload)
	return decodeEnvelope(f.dec2, code)
}

// gobEncode appends env's gob encoding (a fresh one-frame gob session)
// to buf. Shared by plain Send and the v2 byte-savings oracle.
func gobEncode(buf *bytes.Buffer, env *envelope) error {
	return gob.NewEncoder(buf).Encode(env)
}

// Send encodes msg as one length-prefixed frame on conn and attributes
// it to the connection's edge when the transport is instrumented. msg
// must be one of the wire message pointer types. On a Framed connection
// the session's persistent codec is used (the negotiated version);
// plain connections always carry one-frame gob sessions, which any
// receiver understands.
func Send(conn net.Conn, msg any) error {
	env, err := wrap(msg)
	if err != nil {
		return err
	}
	if f, ok := conn.(*Framed); ok {
		return f.send(&env)
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, 4)) // length placeholder, patched below
	if err := gobEncode(&buf, &env); err != nil {
		return fmt.Errorf("wire: encode %s: %w", env.Kind, err)
	}
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return writeFrame(conn, env.Kind, frame)
}

// writeFrame writes one encoded frame. An instrumented connection books
// the message before the bytes go out and un-books it if the write
// fails: booked after the write, a reader could act on a frame its
// sender had not counted yet.
func writeFrame(conn net.Conn, kind string, frame []byte) error {
	mm, _ := conn.(netsim.MessageMarker)
	if mm != nil {
		mm.MarkMessage(kind)
	}
	if _, err := conn.Write(frame); err != nil {
		if mm != nil {
			mm.UnmarkMessage(kind)
		}
		return fmt.Errorf("wire: send %s: %w", kind, err)
	}
	return nil
}

// Receive reads one frame from conn and returns the contained message as
// one of *CloneMsg, *ResultMsg, *FetchReq, *FetchResp. On a Framed
// connection the session's persistent decoder is used.
func Receive(conn net.Conn) (any, error) {
	if f, ok := conn.(*Framed); ok {
		return f.receive(false)
	}
	var lenbuf [4]byte
	if _, err := io.ReadFull(conn, lenbuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, fmt.Errorf("wire: short frame: %w", err)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	return unwrap(&env)
}

// ReceiveUnacked is Receive for an acceptor that decides by a session's
// first message whether to keep the session: the handshake ack a dialer
// waits for in Settle is written when the acceptor comes back (its next
// receive or Send on f), and never if it closes the connection instead.
func ReceiveUnacked(f *Framed) (any, error) { return f.receive(true) }

// unwrap validates an envelope and returns its payload message.
func unwrap(env *envelope) (any, error) {
	switch env.Kind {
	case KindClone:
		if env.Clone == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Clone, nil
	case KindResult:
		if env.Result == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Result, nil
	case KindBounce:
		if env.Bounce == nil || env.Bounce.Clone == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Bounce, nil
	case KindShed:
		if env.Shed == nil || env.Shed.Clone == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Shed, nil
	case KindStop:
		if env.Stop == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Stop, nil
	case KindFetchReq:
		if env.FetchReq == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.FetchReq, nil
	case KindFetchResp:
		if env.FetchResp == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.FetchResp, nil
	case KindTune:
		if env.Tune == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Tune, nil
	case KindWatch:
		if env.Watch == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Watch, nil
	case KindDelta:
		if env.Delta == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Delta, nil
	}
	return nil, fmt.Errorf("wire: unknown message kind %q", env.Kind)
}
