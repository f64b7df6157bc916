// Package wire defines the messages that WEBDIS components exchange and
// their encoding. The original system forwarded web-query objects between
// Java daemons using Java object serialization; this reproduction uses a
// hand-written binary codec (codec.go) in length-prefixed frames over any
// net.Conn, so the same messages flow over the simulated fabric and over
// TCP.
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
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
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
	return id.User + "@" + id.Site + "#" + strconv.Itoa(id.Num)
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
	// environments are different clones: the log table and
	// nodeproc.Batch both key on EnvKey.
	Env map[string]string
	// Span identifies this clone message in the query's causal trace and
	// Parent the clone message it was forwarded from (zero for a root
	// dispatch). Zero Span means tracing is off for this message.
	Span   SpanID
	Parent SpanID
	// Budget is the query's resource budget, inherited (and decremented)
	// by every clone spawned from this one. The zero Budget is unlimited.
	Budget Budget
	// Frag, when non-nil, is the plan fragment of a query with an output
	// contract (aggregates, GROUP BY or LIMIT): the output spec whose
	// partial form every site applies to the named stage's raw rows
	// before shipping them. Children inherit it unchanged.
	Frag *PlanFrag
}

// PlanFrag is a pushed-down plan fragment riding a clone: the final
// stage's output spec, which a site turns into a partial hash-aggregate
// (or per-node top-K) over that stage's result rows before they ship.
type PlanFrag struct {
	Stage int // index of the stage the fragment transforms (the final stage)
	Spec  nodequery.OutputSpec
}

// Applies reports whether the fragment targets the given stage.
func (f *PlanFrag) Applies(stage int) bool {
	return f != nil && f.Stage == stage
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
// and Seq uniquely identify the instance (see DestNode). It is comparable:
// the table is keyed by the entry itself.
type CHTEntry struct {
	Node   string
	State  State
	Origin string
	Seq    int64
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
	// contributions when folding aggregates.
	Env string
	// Partial marks rows that are partial-aggregate state produced by a
	// pushed-down PlanFrag (group keys then one state cell per
	// aggregate) rather than raw result rows.
	Partial bool
}

// Fate is what became of the clone a ResultMsg reports on.
type Fate uint8

const (
	// FateProcessed: the clone was evaluated.
	FateProcessed Fate = iota
	// FateExpired: the clone exceeded its Budget (deadline or quota) and
	// was retired unevaluated, the typed EXPIRED terminate.
	FateExpired
	// FateStopped: the user-site broadcast a StopMsg (active early
	// termination) and the clone was retired unevaluated.
	FateStopped
	// FateShed: admission control refused a fresh root clone over the
	// site's high watermark; the query never started there. Unlike a
	// BounceMsg, which still owes processing, a shed clone is refused
	// outright and the user-site surfaces Query.Shed.
	FateShed
)

// ResultMsg is the query-server → user-site message: all results and CHT
// updates from processing one CloneMsg, batched (Section 3.2, item 3).
// For traced clones it also carries the span context of the processed
// clone and the spans of the clones spawned from it, so the user-site can
// stitch the causal tree without reading remote journals.
type ResultMsg struct {
	ID      QueryID
	Updates []CHTUpdate
	Tables  []NodeTable
	// Fate types the report: FateProcessed for a clone the site evaluated,
	// or the typed retirement of one it never evaluated. The CHT
	// arithmetic is the same for every fate — entries retire — but the
	// user-site books the span's fate from it.
	Fate Fate
	// Span is the span of the clone message whose processing produced
	// this report (zero when untraced); Site and Hop locate it.
	Span SpanID
	Site string
	Hop  int
	// Spawned lists the clone messages forwarded during that processing.
	Spawned []SpanLink
	// From and Inc identify the replica that produced the report when
	// the deployment is replicated: the replica's listen endpoint and
	// its registration incarnation. The user-site drops frames whose
	// incarnation is older than the membership's current one for that
	// endpoint — a restarted replica's stale in-flight replies must not
	// retire entries the new incarnation re-announces. Both zero on
	// unreplicated deployments, which accept every frame as before.
	From string
	Inc  int64
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

// BounceMsg returns an undeliverable clone to the user-site, the one
// party that decides its fate. Reason says why: BounceNoServer when the
// destination site runs no query server (the paper's Section 7.1
// migration path), BounceRetryExhausted when the site should be reachable
// but every forward attempt failed (fault-tolerant degraded mode: the
// engine falls back from query shipping to data shipping for that one
// edge), BounceMalformed when no site can process the clone. The
// user-site hands a clone the network could not deliver to its proxy
// query server, which fetches the documents, evaluates them there, and
// re-enters distributed mode at the next participating site; anything
// else it writes off, and the query completes partial.
type BounceMsg struct {
	Clone  *CloneMsg
	Reason string
}

// Bounce reasons.
const (
	BounceNoServer       = "no-server"
	BounceRetryExhausted = "retry-exhausted"
	BounceMalformed      = "malformed"
)

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

// WatchMsg registers (or cancels) a standing query at a query server:
// the user-site asks to be notified whenever the site's documents
// change. ID names the watch; ID.Site is the endpoint DeltaMsg
// notifications are delivered to — the watch's own collector, exactly
// like a query's Result Collector.
type WatchMsg struct {
	ID QueryID
	// Cancel deregisters the watch instead.
	Cancel bool
}

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
	ID      QueryID
	Site    string
	Seq     int64
	Edited  []string
	Rewired []string
}

// Message kind strings, used for per-kind traffic accounting.
const (
	KindClone     = "clone"
	KindResult    = "result"
	KindBounce    = "bounce"
	KindStop      = "stop"
	KindFetchReq  = "fetch-req"
	KindFetchResp = "fetch-resp"
	KindWatch     = "watch"
	KindDelta     = "delta"
)

// envelope pairs a message with its kind: what the codec encodes and
// unwrap validates.
type envelope struct {
	Kind      string
	Clone     *CloneMsg
	Result    *ResultMsg
	Bounce    *BounceMsg
	Stop      *StopMsg
	FetchReq  *FetchReq
	FetchResp *FetchResp
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
	case *StopMsg:
		return envelope{Kind: KindStop, Stop: m}, nil
	case *FetchReq:
		return envelope{Kind: KindFetchReq, FetchReq: m}, nil
	case *FetchResp:
		return envelope{Kind: KindFetchResp, FetchResp: m}, nil
	case *WatchMsg:
		return envelope{Kind: KindWatch, Watch: m}, nil
	case *DeltaMsg:
		return envelope{Kind: KindDelta, Delta: m}, nil
	}
	return envelope{}, fmt.Errorf("wire: cannot send %T", msg)
}

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 64 << 20

// frameHeaderLen is the frame header: 4-byte length prefix plus the kind
// and flags bytes the length covers.
const frameHeaderLen = 6

// helloMagic opens the 4-byte version hello and ack. The first byte is
// deliberately above maxFrame's high byte (0x04), so no length prefix —
// such as the first bytes of a pre-v2 peer's gob frame — reads as a
// hello.
var helloMagic = [3]byte{0xAE, 'W', 'D'}

// Framed wraps a connection with a persistent wire session. The session
// settles its format version once, before the first frame:
//
//   - The side that sends first (the dialer) writes the 4-byte hello
//     {0xAE 'W' 'D' ver} pipelined with its first frame in a single
//     write, so the handshake adds no round trip and no extra
//     fault-injection draw to first delivery. The 4-byte ack carrying the
//     granted version is read lazily before the second frame — or at once
//     by a sender that calls Settle.
//   - The side that receives first classifies the connection by its first
//     four bytes. A hello offering MaxWireVersion or newer is granted
//     MaxWireVersion: the pipelined frame is decoded first and the ack
//     written only after it arrives whole, so a lost ack can never lose a
//     frame that was in fact delivered. A receiver that reads with
//     ReceiveUnacked writes the ack later still, when it comes back to the
//     session (its next receive or Send), and closes the connection
//     instead if it will not take the session's first message: the
//     dialer's Settle fails, which is how a Result Collector refuses a
//     report for a query it no longer routes (Section 2.8's failed
//     dispatch). Anything else — no hello at all, as from a pre-v2 peer,
//     or a hello offering an older version — is refused with ErrVersion
//     and the connection closed, so the dialer's Settle or next receive
//     fails as well.
//
// A Framed connection is a session with an error latch: the first Send
// or Receive failure — including a short read mid-frame — poisons it,
// and every later call fails fast with ErrPoisoned wrapping the original
// error. A poisoned session reports Healthy() == false, which the
// connection pool checks before re-pooling, so a torn frame can never be
// followed by a delivery on the same connection. One goroutine sends and
// one receives; neither method is safe for concurrent use with itself.
//
// A plain Send on a bare connection is a one-frame session, which a
// Framed receiver takes like any other. A conversation of several frames
// wraps its connection once, on both sides: the intern tables of codec.go
// live as long as the session.
type Framed struct {
	net.Conn

	// ver is the settled wire version, 0 until the session is settled:
	// at once for a classified receiver, at ack time for the dialer.
	ver int
	// txHello records that the hello went out pipelined with the first
	// frame; the granted-version ack is read lazily before the second
	// frame, so the handshake adds no round trip to first delivery.
	txHello bool
	// rxAck marks that the next inbound frame is the dialer's pipelined
	// first frame, acked once it has decoded: at once, or — when the frame
	// is read by ReceiveUnacked — as rxAckOwed, by this side's next
	// receive or Send, whichever goroutine gets there first (hence the
	// atomic).
	rxAck     bool
	rxAckOwed atomic.Bool

	// Per-direction codecs with interned string tables, plus reusable
	// frame buffers (send, receive, inflate, compress).
	enc  *encoder
	dec  *decoder
	rbuf []byte
	dbuf []byte
	cbuf bytes.Buffer

	failMu sync.Mutex
	fail   error
}

// NewFramed wraps conn in a persistent wire session; wrapping a Framed
// connection returns it unchanged.
func NewFramed(conn net.Conn) *Framed {
	if f, ok := conn.(*Framed); ok {
		return f
	}
	return &Framed{Conn: conn}
}

// NetConn returns the connection the session runs on.
func (f *Framed) NetConn() net.Conn { return f.Conn }

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
// keep the session — a user-site that no longer routes the reported query,
// or a peer that refused the hello. On a settled or unframed connection it
// returns nil at once.
func Settle(conn net.Conn) error {
	f, ok := conn.(*Framed)
	if !ok || f.ver != 0 || !f.txHello {
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
	if f.rxAckOwed.Swap(false) {
		f.ack()
	}
}

// ack tells the dialer its granted version.
func (f *Framed) ack() {
	ack := [4]byte{helloMagic[0], helloMagic[1], helloMagic[2], MaxWireVersion}
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
	var ack [4]byte
	if _, err := io.ReadFull(f.Conn, ack[:]); err != nil {
		return fmt.Errorf("wire: handshake ack: %w", err)
	}
	if [3]byte(ack[:3]) != helloMagic {
		return fmt.Errorf("%w: bad handshake ack", ErrCorrupt)
	}
	if ack[3] != MaxWireVersion {
		return fmt.Errorf("%w: handshake granted version %d against offer %d", ErrVersion, ack[3], MaxWireVersion)
	}
	f.ver = MaxWireVersion
	return nil
}

// negotiateRx classifies an incoming connection by its first four bytes:
// a hello offering MaxWireVersion or newer settles the session (the
// pipelined first frame is decoded before the ack is written); anything
// else is refused.
func (f *Framed) negotiateRx() error {
	var hello [4]byte
	if _, err := io.ReadFull(f.Conn, hello[:]); err != nil {
		return err // io.EOF for a connection closed before any traffic
	}
	var err error
	switch {
	case [3]byte(hello[:3]) != helloMagic:
		err = fmt.Errorf("%w: session opens without a hello (% x)", ErrVersion, hello)
	case hello[3] < MaxWireVersion:
		err = fmt.Errorf("%w: hello offers version %d, want %d", ErrVersion, hello[3], MaxWireVersion)
	default:
		f.ver, f.rxAck = MaxWireVersion, true
		return nil
	}
	// Closing is the refusal a dialer can see: its Settle or next receive
	// fails now instead of waiting on an ack that never comes.
	f.Conn.Close()
	return err
}

func (f *Framed) send(env *envelope) error {
	f.writeAck()
	if err := f.latched(); err != nil {
		return err
	}
	if f.ver == 0 && f.txHello {
		if err := f.finishTx(); err != nil {
			f.poison(err)
			return err
		}
	}
	// Still unsettled: this is the session's first frame, and the hello
	// rides in the same write — no round trip, one fault-injection draw.
	hello := f.ver == 0
	if err := f.write(env, hello); err != nil {
		f.poison(err)
		return err
	}
	f.txHello = f.txHello || hello
	return nil
}

func (f *Framed) write(env *envelope, withHello bool) error {
	if f.enc == nil {
		f.enc = newEncoder()
	}
	code, ok := kindCode(env.Kind)
	if !ok {
		return fmt.Errorf("wire: cannot send kind %q", env.Kind)
	}
	e := f.enc
	e.buf = e.buf[:0]
	start := 0
	if withHello {
		e.buf = append(e.buf, helloMagic[0], helloMagic[1], helloMagic[2], MaxWireVersion)
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
	return writeFrame(f.Conn, env.Kind, frame)
}

func (f *Framed) receive(holdAck bool) (any, error) {
	f.writeAck()
	if err := f.latched(); err != nil {
		return nil, err
	}
	var err error
	if f.ver == 0 {
		if f.txHello {
			err = f.finishTx() // this side dialed; settle our own hello first
		} else {
			err = f.negotiateRx()
		}
	}
	var msg any
	if err == nil {
		msg, err = f.read()
	}
	if err != nil {
		if err != io.EOF {
			f.poison(err)
		}
		return nil, err
	}
	if f.rxAck {
		// The pipelined frame arrived whole: now the dialer may learn its
		// granted version — or, held, once the caller has looked at msg.
		f.rxAck = false
		if holdAck {
			f.rxAckOwed.Store(true)
		} else {
			f.ack()
		}
	}
	return msg, nil
}

func (f *Framed) read() (any, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(f.Conn, lenbuf[:]); err != nil {
		if err == io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("%w: frame header: %v", ErrTruncated, err)
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrCorrupt, n)
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
	if f.dec == nil {
		f.dec = newDecoder()
	}
	f.dec.reset(payload)
	return decodeEnvelope(f.dec, code)
}

// Send encodes msg as one frame on conn and attributes it to the
// connection's edge when the transport is instrumented. msg must be one
// of the wire message pointer types. A bare connection is wrapped for
// this one call: a one-frame session, hello included.
func Send(conn net.Conn, msg any) error {
	env, err := wrap(msg)
	if err != nil {
		return err
	}
	return NewFramed(conn).send(&env)
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

// Receive reads one frame from conn and returns the message it carries,
// one of the wire message pointer types. A bare connection is read as a
// one-frame session: nothing reads an ack on it, so none is written.
func Receive(conn net.Conn) (any, error) {
	if f, ok := conn.(*Framed); ok {
		return f.receive(false)
	}
	return NewFramed(conn).receive(true)
}

// ReceiveUnacked is Receive for an acceptor that decides by a session's
// first message whether to keep the session: the handshake ack a dialer
// waits for in Settle is written when the acceptor comes back (its next
// receive or Send on f), and never if it closes the connection instead.
func ReceiveUnacked(f *Framed) (any, error) { return f.receive(true) }
