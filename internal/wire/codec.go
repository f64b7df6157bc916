// Wire format v3: a hand-rolled, length-prefixed binary encoding for
// every message kind — this reproduction's analog of the Java object
// serialization the paper's daemons used. It writes fields directly,
// without reflection: varint integers, per-connection interned string
// tables for the endpoint/URL/state strings that repeat across a
// session's frames, buffers reused across frames, and optional per-frame
// DEFLATE compression for large result frames. encoding/gob survives
// only in the tests, as the oracle the codec is fuzzed against.
//
// Frame layout (after the 4-byte big-endian length prefix, which covers
// everything that follows):
//
//	byte 0   kind   (codeClone..codeDelta)
//	byte 1   flags  (bit 0: payload is DEFLATE-compressed)
//	bytes 2+ payload — the message fields in declaration order, or, when
//	         compressed, a uvarint raw payload length followed by the
//	         DEFLATE stream
//
// Integers travel as varints (zig-zag for signed fields). Booleans are
// the varints 0/1. Strings carry a uvarint tag first: 0 = literal, not
// interned; 1 = literal, receiver appends it to its table; tag ≥ 2 =
// reference to table entry tag-2. Each direction of a connection builds
// its own table (bounded, see maxInternEntries), so a session's
// repeated site names, URLs and PRE states shrink to one or two bytes
// — and decode to the *same* string value, not a fresh allocation.
// Slices and maps encode a uvarint count first; zero-length decodes as
// nil, matching gob's convention so the differential fuzzer can compare
// structures directly. Map entries are encoded in sorted key order so
// equal messages produce identical bytes.
//
// Version negotiation happens once per connection, before the first
// frame (see Framed): the dialer writes the 4-byte hello
// {0xAE 'W' 'D' ver} and later reads the matching ack with the receiver's
// granted version. The magic first byte 0xAE can never open a length
// prefix — maxFrame caps its first byte at 0x04 — so an accepting side
// tells a hello from a pre-v2 peer's gob frame by its first four bytes
// alone, and refuses the latter with ErrVersion.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"webdis/internal/nodequery"
)

// MaxWireVersion is the one wire format this build speaks: version 4,
// the binary codec with one report per result frame, typed by one fate
// byte. A hello offering a newer version is granted this one; an older
// one is refused (version 1 was framed gob; version 2 carried a list of
// batched reports in every result frame and a TUNE kind; version 3 typed
// a report with two flag bytes and refused a shed clone with a SHED kind
// of its own).
const MaxWireVersion = 4

// Typed codec errors. Receive surfaces ErrTruncated when a frame ends
// before its own encoding claims it should (including a connection
// dying mid-frame), ErrCorrupt when the bytes are structurally invalid,
// ErrVersion when the peer opened the session without a hello this
// build speaks, and ErrPoisoned when the session was latched by an
// earlier failure (see Framed). Match with errors.Is.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrCorrupt   = errors.New("wire: corrupt frame")
	ErrVersion   = errors.New("wire: unsupported wire version")
	ErrPoisoned  = errors.New("wire: session poisoned by earlier error")
)

// Kind codes, one per message type.
const (
	codeClone byte = iota + 1
	codeResult
	codeBounce
	_ // 4: the SHED kind of version 3, retired
	codeStop
	codeFetchReq
	codeFetchResp
	_ // 8: the TUNE kind of version 2, retired
	codeWatch
	codeDelta
)

// flagCompressed marks a DEFLATE-compressed payload.
const flagCompressed byte = 1 << 0

// compressMin is the smallest payload worth compressing. Only result
// frames are candidates: they carry the bulky row batches, and the
// threshold keeps the flate setup cost off every small frame.
const compressMin = 16 << 10

// Interning bounds: strings longer than maxInternLen are copied literal
// (interning them would bloat the table for little reference reuse),
// and a direction's table stops growing at maxInternEntries so an
// adversarial or just very long session cannot pin unbounded memory.
const (
	maxInternLen     = 256
	maxInternEntries = 4096
)

// maxPredDepth bounds predicate-tree recursion during decode, so a
// corrupt or hostile frame cannot overflow the stack.
const maxPredDepth = 512

func kindCode(kind string) (byte, bool) {
	switch kind {
	case KindClone:
		return codeClone, true
	case KindResult:
		return codeResult, true
	case KindBounce:
		return codeBounce, true
	case KindStop:
		return codeStop, true
	case KindFetchReq:
		return codeFetchReq, true
	case KindFetchResp:
		return codeFetchResp, true
	case KindWatch:
		return codeWatch, true
	case KindDelta:
		return codeDelta, true
	}
	return 0, false
}

// encoder appends v2-encoded fields to buf. It never fails; the buffer
// and intern table live as long as their connection, so steady-state
// encodes reuse both and allocate nothing beyond table growth.
type encoder struct {
	buf []byte
	tab map[string]int
}

func newEncoder() *encoder {
	return &encoder{tab: make(map[string]int)}
}

// reset drops buffered bytes and the intern table, returning the
// encoder to fresh-connection state (used by the pooled size helpers;
// connections never reset, their tables are the point).
func (e *encoder) reset() {
	e.buf = e.buf[:0]
	clear(e.tab)
}

func (e *encoder) u(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

func (e *encoder) str(s string) {
	if n, ok := e.tab[s]; ok {
		e.u(uint64(n) + 2)
		return
	}
	if len(s) > 0 && len(s) <= maxInternLen && len(e.tab) < maxInternEntries {
		e.tab[s] = len(e.tab)
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	e.u(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(p []byte) {
	e.u(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// decoder consumes one frame's payload. Errors are sticky: the first
// malformed field latches err and every later read returns zeros, so
// per-field call sites stay unconditional. The intern table persists
// across frames (reset keeps it), mirroring the sending direction's.
type decoder struct {
	buf   []byte
	off   int
	tab   []string
	depth int
	err   error
}

func newDecoder() *decoder { return &decoder{} }

// reset points the decoder at a new frame payload, keeping the
// session's intern table.
func (d *decoder) reset(buf []byte) {
	d.buf, d.off, d.depth, d.err = buf, 0, 0, nil
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
		}
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
		}
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int { return int(d.i()) }

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail(fmt.Errorf("%w: bool byte %#x", ErrCorrupt, b))
		return false
	}
	return b == 1
}

// fate reads a report's fate byte, rejecting one past FateShed.
func (d *decoder) fate() Fate {
	if d.err != nil {
		return FateProcessed
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return FateProcessed
	}
	f := Fate(d.buf[d.off])
	d.off++
	if f > FateShed {
		d.fail(fmt.Errorf("%w: unknown fate %d", ErrCorrupt, f))
		return FateProcessed
	}
	return f
}

// count reads a slice/map length and sanity-checks it against the bytes
// left in the frame (every element costs at least one byte), so a
// corrupt count cannot drive a huge allocation.
func (d *decoder) count() int {
	n := d.u()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.remaining()) {
		d.fail(fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrCorrupt, n, d.remaining()))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	tag := d.u()
	if d.err != nil {
		return ""
	}
	if tag >= 2 {
		// Compare before narrowing: a huge tag would overflow int and
		// index negatively.
		if tag-2 >= uint64(len(d.tab)) {
			d.fail(fmt.Errorf("%w: string ref %d beyond table of %d", ErrCorrupt, tag-2, len(d.tab)))
			return ""
		}
		return d.tab[tag-2]
	}
	n := d.u()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.remaining()) {
		d.fail(ErrTruncated)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	if tag == 1 {
		if len(d.tab) >= maxInternEntries {
			d.fail(fmt.Errorf("%w: intern table overflow", ErrCorrupt))
			return ""
		}
		d.tab = append(d.tab, s)
	}
	return s
}

func (d *decoder) bytes() []byte {
	n := d.u()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail(ErrTruncated)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := make([]byte, n)
	copy(p, d.buf[d.off:])
	d.off += int(n)
	return p
}

// finish reports the frame's decode outcome: the sticky error if any,
// or ErrCorrupt when payload bytes remain unconsumed (a well-formed
// frame is read exactly).
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// --- per-type encoding -------------------------------------------------

func (e *encoder) queryID(id QueryID) {
	e.str(id.User)
	e.str(id.Site)
	e.i(int64(id.Num))
}

func (d *decoder) queryID() QueryID {
	return QueryID{User: d.str(), Site: d.str(), Num: d.int()}
}

func (e *encoder) spanID(s SpanID) {
	e.str(s.Origin)
	e.i(s.Seq)
}

func (d *decoder) spanID() SpanID {
	return SpanID{Origin: d.str(), Seq: d.i()}
}

func (e *encoder) colRef(c nodequery.ColRef) {
	e.str(c.Var)
	e.str(c.Col)
}

func (d *decoder) colRef() nodequery.ColRef {
	return nodequery.ColRef{Var: d.str(), Col: d.str()}
}

func (e *encoder) colRefs(cs []nodequery.ColRef) {
	e.u(uint64(len(cs)))
	for _, c := range cs {
		e.colRef(c)
	}
}

func (d *decoder) colRefs() []nodequery.ColRef {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]nodequery.ColRef, n)
	for i := range out {
		out[i] = d.colRef()
	}
	return out
}

func (e *encoder) operand(o nodequery.Operand) {
	e.bool(o.IsCol)
	if o.IsCol {
		e.colRef(o.Col)
	} else {
		e.str(o.Lit)
	}
}

func (d *decoder) operand() nodequery.Operand {
	var o nodequery.Operand
	o.IsCol = d.bool()
	if o.IsCol {
		o.Col = d.colRef()
	} else {
		o.Lit = d.str()
	}
	return o
}

func (e *encoder) pred(p *nodequery.Pred) {
	if p == nil {
		e.buf = append(e.buf, 0)
		return
	}
	e.buf = append(e.buf, 1)
	e.u(uint64(p.Kind))
	switch p.Kind {
	case nodequery.And, nodequery.Or, nodequery.Not:
		e.u(uint64(len(p.Kids)))
		for _, k := range p.Kids {
			e.pred(k)
		}
	case nodequery.Cmp:
		e.operand(p.Left)
		e.u(uint64(p.Op))
		e.operand(p.Right)
	}
}

func (d *decoder) pred() *nodequery.Pred {
	if !d.bool() {
		return nil
	}
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxPredDepth {
		d.fail(fmt.Errorf("%w: predicate nesting over %d", ErrCorrupt, maxPredDepth))
		return nil
	}
	p := &nodequery.Pred{Kind: nodequery.PredKind(d.u())}
	switch p.Kind {
	case nodequery.True:
	case nodequery.And, nodequery.Or, nodequery.Not:
		n := d.count()
		for i := 0; i < n; i++ {
			p.Kids = append(p.Kids, d.pred())
		}
	case nodequery.Cmp:
		p.Left = d.operand()
		p.Op = nodequery.CmpOp(d.u())
		if p.Op > nodequery.NotContains {
			d.fail(fmt.Errorf("%w: comparison op %d", ErrCorrupt, p.Op))
		}
		p.Right = d.operand()
	default:
		d.fail(fmt.Errorf("%w: predicate kind %d", ErrCorrupt, p.Kind))
		return nil
	}
	return p
}

func (e *encoder) query(q *nodequery.Query) {
	if q == nil {
		e.buf = append(e.buf, 0)
		return
	}
	e.buf = append(e.buf, 1)
	e.u(uint64(len(q.Vars)))
	for _, v := range q.Vars {
		e.str(v.Name)
		e.str(v.Rel)
		e.pred(v.Cond)
	}
	e.pred(q.Where)
	e.colRefs(q.Select)
	e.colRefs(q.Outer)
}

func (d *decoder) query() *nodequery.Query {
	if !d.bool() {
		return nil
	}
	q := &nodequery.Query{}
	n := d.count()
	if n > 0 {
		q.Vars = make([]nodequery.VarDecl, n)
		for i := range q.Vars {
			q.Vars[i] = nodequery.VarDecl{Name: d.str(), Rel: d.str(), Cond: d.pred()}
		}
	}
	q.Where = d.pred()
	q.Select = d.colRefs()
	q.Outer = d.colRefs()
	return q
}

func (e *encoder) outputCol(c nodequery.OutputCol) {
	e.u(uint64(c.Agg))
	e.bool(c.Star)
	e.colRef(c.Ref)
}

func (d *decoder) outputCol() nodequery.OutputCol {
	c := nodequery.OutputCol{Agg: nodequery.AggKind(d.u())}
	if c.Agg > nodequery.AggMax {
		d.fail(fmt.Errorf("%w: aggregate kind %d", ErrCorrupt, c.Agg))
	}
	c.Star = d.bool()
	c.Ref = d.colRef()
	return c
}

func (e *encoder) outputSpec(s *nodequery.OutputSpec) {
	e.u(uint64(len(s.Cols)))
	for _, c := range s.Cols {
		e.outputCol(c)
	}
	e.colRefs(s.GroupBy)
	e.u(uint64(len(s.OrderBy)))
	for _, k := range s.OrderBy {
		e.outputCol(k.Col)
		e.bool(k.Desc)
	}
	e.i(int64(s.Limit))
}

func (d *decoder) outputSpec() nodequery.OutputSpec {
	var s nodequery.OutputSpec
	if n := d.count(); n > 0 {
		s.Cols = make([]nodequery.OutputCol, n)
		for i := range s.Cols {
			s.Cols[i] = d.outputCol()
		}
	}
	s.GroupBy = d.colRefs()
	if n := d.count(); n > 0 {
		s.OrderBy = make([]nodequery.OrderKey, n)
		for i := range s.OrderBy {
			s.OrderBy[i] = nodequery.OrderKey{Col: d.outputCol(), Desc: d.bool()}
		}
	}
	s.Limit = d.int()
	return s
}

func (e *encoder) strs(ss []string) {
	e.u(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (d *decoder) strs() []string {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (e *encoder) stageMsg(s *StageMsg) {
	e.str(s.PRE)
	e.query(s.Query)
	e.u(uint64(len(s.Export)))
	for _, x := range s.Export {
		e.str(x)
	}
}

func (d *decoder) stageMsg() StageMsg {
	var s StageMsg
	s.PRE = d.str()
	s.Query = d.query()
	if n := d.count(); n > 0 {
		s.Export = make([]string, n)
		for i := range s.Export {
			s.Export[i] = d.str()
		}
	}
	return s
}

func (e *encoder) budget(b Budget) {
	e.i(b.Deadline)
	e.i(int64(b.Hops))
	e.i(int64(b.Clones))
	e.i(int64(b.Rows))
	e.i(int64(b.Weight))
	e.i(int64(b.FirstN))
}

func (d *decoder) budget() Budget {
	return Budget{
		Deadline: d.i(), Hops: d.int(), Clones: d.int(),
		Rows: d.int(), Weight: d.int(), FirstN: d.int(),
	}
}

func (e *encoder) siteStat(s SiteStat) {
	e.str(s.Site)
	e.i(s.Docs)
	e.i(s.DocBytes)
	e.i(s.Evals)
	e.i(s.RowsScanned)
	e.i(s.RowsEmitted)
	e.i(s.Fanout)
}

func (d *decoder) siteStat() SiteStat {
	return SiteStat{
		Site: d.str(), Docs: d.i(), DocBytes: d.i(), Evals: d.i(),
		RowsScanned: d.i(), RowsEmitted: d.i(), Fanout: d.i(),
	}
}

func (e *encoder) siteStats(ss []SiteStat) {
	e.u(uint64(len(ss)))
	for _, s := range ss {
		e.siteStat(s)
	}
}

func (d *decoder) siteStats() []SiteStat {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]SiteStat, n)
	for i := range out {
		out[i] = d.siteStat()
	}
	return out
}

func (e *encoder) cloneMsg(m *CloneMsg) {
	e.queryID(m.ID)
	e.u(uint64(len(m.Dest)))
	for _, dn := range m.Dest {
		e.str(dn.URL)
		e.str(dn.Origin)
		e.i(dn.Seq)
	}
	e.str(m.Rem)
	e.i(int64(m.Base))
	e.u(uint64(len(m.Stages)))
	for i := range m.Stages {
		e.stageMsg(&m.Stages[i])
	}
	e.i(int64(m.Hops))
	e.u(uint64(len(m.Env)))
	if len(m.Env) > 0 {
		keys := make([]string, 0, len(m.Env))
		for k := range m.Env {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e.str(k)
			e.str(m.Env[k])
		}
	}
	e.spanID(m.Span)
	e.spanID(m.Parent)
	e.budget(m.Budget)
	if m.Frag != nil {
		e.buf = append(e.buf, 1)
		e.i(int64(m.Frag.Version))
		e.i(int64(m.Frag.Stage))
		e.outputSpec(&m.Frag.Spec)
	} else {
		e.buf = append(e.buf, 0)
	}
	e.siteStats(m.Hints)
}

func (d *decoder) cloneMsg() *CloneMsg {
	m := &CloneMsg{ID: d.queryID()}
	if n := d.count(); n > 0 {
		m.Dest = make([]DestNode, n)
		for i := range m.Dest {
			m.Dest[i] = DestNode{URL: d.str(), Origin: d.str(), Seq: d.i()}
		}
	}
	m.Rem = d.str()
	m.Base = d.int()
	if n := d.count(); n > 0 {
		m.Stages = make([]StageMsg, n)
		for i := range m.Stages {
			m.Stages[i] = d.stageMsg()
		}
	}
	m.Hops = d.int()
	if n := d.count(); n > 0 {
		m.Env = make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := d.str()
			m.Env[k] = d.str()
		}
	}
	m.Span = d.spanID()
	m.Parent = d.spanID()
	m.Budget = d.budget()
	if d.bool() {
		m.Frag = &PlanFrag{Version: d.int(), Stage: d.int(), Spec: d.outputSpec()}
	}
	m.Hints = d.siteStats()
	return m
}

func (e *encoder) chtEntry(c CHTEntry) {
	e.str(c.Node)
	e.i(int64(c.State.NumQ))
	e.str(c.State.Rem)
	e.str(c.Origin)
	e.i(c.Seq)
}

func (d *decoder) chtEntry() CHTEntry {
	return CHTEntry{
		Node:   d.str(),
		State:  State{NumQ: d.int(), Rem: d.str()},
		Origin: d.str(),
		Seq:    d.i(),
	}
}

func (e *encoder) nodeTable(t *NodeTable) {
	e.str(t.Node)
	e.i(int64(t.Stage))
	e.u(uint64(len(t.Cols)))
	for _, c := range t.Cols {
		e.str(c)
	}
	e.u(uint64(len(t.Rows)))
	for _, row := range t.Rows {
		e.u(uint64(len(row)))
		for _, cell := range row {
			e.str(cell)
		}
	}
	e.str(t.Env)
	e.bool(t.Partial)
}

func (d *decoder) nodeTable() NodeTable {
	var t NodeTable
	t.Node = d.str()
	t.Stage = d.int()
	if n := d.count(); n > 0 {
		t.Cols = make([]string, n)
		for i := range t.Cols {
			t.Cols[i] = d.str()
		}
	}
	if n := d.count(); n > 0 {
		t.Rows = make([][]string, n)
		for i := range t.Rows {
			if rn := d.count(); rn > 0 {
				row := make([]string, rn)
				for j := range row {
					row[j] = d.str()
				}
				t.Rows[i] = row
			}
		}
	}
	t.Env = d.str()
	t.Partial = d.bool()
	return t
}

func (e *encoder) resultMsg(m *ResultMsg) {
	e.queryID(m.ID)
	e.u(uint64(len(m.Updates)))
	for _, u := range m.Updates {
		e.chtEntry(u.Processed)
		e.u(uint64(len(u.Children)))
		for _, c := range u.Children {
			e.chtEntry(c)
		}
	}
	e.u(uint64(len(m.Tables)))
	for i := range m.Tables {
		e.nodeTable(&m.Tables[i])
	}
	e.buf = append(e.buf, byte(m.Fate))
	e.spanID(m.Span)
	e.str(m.Site)
	e.i(int64(m.Hop))
	e.u(uint64(len(m.Spawned)))
	for _, l := range m.Spawned {
		e.spanID(l.Span)
		e.str(l.Site)
	}
	e.siteStats(m.Stats)
	e.str(m.From)
	e.i(m.Inc)
}

func (d *decoder) resultMsg() *ResultMsg {
	m := &ResultMsg{ID: d.queryID()}
	if n := d.count(); n > 0 {
		m.Updates = make([]CHTUpdate, n)
		for i := range m.Updates {
			m.Updates[i].Processed = d.chtEntry()
			if cn := d.count(); cn > 0 {
				m.Updates[i].Children = make([]CHTEntry, cn)
				for j := range m.Updates[i].Children {
					m.Updates[i].Children[j] = d.chtEntry()
				}
			}
		}
	}
	if n := d.count(); n > 0 {
		m.Tables = make([]NodeTable, n)
		for i := range m.Tables {
			m.Tables[i] = d.nodeTable()
		}
	}
	m.Fate = d.fate()
	m.Span = d.spanID()
	m.Site = d.str()
	m.Hop = d.int()
	if n := d.count(); n > 0 {
		m.Spawned = make([]SpanLink, n)
		for i := range m.Spawned {
			m.Spawned[i] = SpanLink{Span: d.spanID(), Site: d.str()}
		}
	}
	m.Stats = d.siteStats()
	m.From = d.str()
	m.Inc = d.i()
	return m
}

// encodeEnvelope writes env's message payload (no frame header).
func encodeEnvelope(e *encoder, env *envelope) error {
	switch env.Kind {
	case KindClone:
		e.cloneMsg(env.Clone)
	case KindResult:
		e.resultMsg(env.Result)
	case KindBounce:
		if env.Bounce.Clone == nil {
			return fmt.Errorf("wire: bounce without clone")
		}
		e.cloneMsg(env.Bounce.Clone)
		e.str(env.Bounce.Reason)
	case KindStop:
		e.queryID(env.Stop.ID)
		e.str(env.Stop.Reason)
	case KindFetchReq:
		e.str(env.FetchReq.URL)
	case KindFetchResp:
		e.str(env.FetchResp.URL)
		e.bytes(env.FetchResp.Content)
		e.str(env.FetchResp.Err)
	case KindWatch:
		e.i(int64(env.Watch.Version))
		e.queryID(env.Watch.ID)
		e.bool(env.Watch.Cancel)
	case KindDelta:
		e.i(int64(env.Delta.Version))
		e.queryID(env.Delta.ID)
		e.str(env.Delta.Site)
		e.i(env.Delta.Seq)
		e.strs(env.Delta.Edited)
		e.strs(env.Delta.Rewired)
	default:
		return fmt.Errorf("wire: cannot encode kind %q", env.Kind)
	}
	return nil
}

// decodeEnvelope reads the payload of a frame of the given kind code and
// returns the message. Every kind decodes to a complete message: a
// bounce always carries its clone.
func decodeEnvelope(d *decoder, code byte) (any, error) {
	var msg any
	switch code {
	case codeClone:
		msg = d.cloneMsg()
	case codeResult:
		msg = d.resultMsg()
	case codeBounce:
		msg = &BounceMsg{Clone: d.cloneMsg(), Reason: d.str()}
	case codeStop:
		msg = &StopMsg{ID: d.queryID(), Reason: d.str()}
	case codeFetchReq:
		msg = &FetchReq{URL: d.str()}
	case codeFetchResp:
		msg = &FetchResp{URL: d.str(), Content: d.bytes(), Err: d.str()}
	case codeWatch:
		msg = &WatchMsg{Version: d.int(), ID: d.queryID(), Cancel: d.bool()}
	case codeDelta:
		msg = &DeltaMsg{
			Version: d.int(), ID: d.queryID(), Site: d.str(), Seq: d.i(),
			Edited: d.strs(), Rewired: d.strs(),
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind code %#x", ErrCorrupt, code)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return msg, nil
}

// --- sizing helpers ----------------------------------------------------

// sizePool recycles scratch encoders for the size helpers, which run on
// cold paths (per fetched document or reduced table, not per frame).
var sizePool = sync.Pool{New: func() any { return newEncoder() }}

// EncodedSize returns the bytes msg would occupy as one uncompressed v2
// frame on a fresh connection (header included): the ground-truth wire
// cost the byte-accounting metrics book, independent of struct layout.
// Returns 0 for types that cannot travel.
func EncodedSize(msg any) int {
	env, err := wrap(msg)
	if err != nil {
		return 0
	}
	e := sizePool.Get().(*encoder)
	e.reset()
	n := 0
	if encodeEnvelope(e, &env) == nil {
		n = frameHeaderLen + len(e.buf)
	}
	sizePool.Put(e)
	return n
}

// TableSize returns the encoded v2 size of one result table — the
// measure the planner's PushdownBytesSaved counter uses to report what
// a pushed-down reduction actually removed from the wire.
func TableSize(t *NodeTable) int {
	e := sizePool.Get().(*encoder)
	e.reset()
	e.nodeTable(t)
	n := len(e.buf)
	sizePool.Put(e)
	return n
}

// --- compression -------------------------------------------------------

var (
	flateWPool sync.Pool // *flate.Writer
	flateRPool sync.Pool // io.ReadCloser implementing flate.Resetter
)

// compressPayload deflates payload into dst (appended after dst's
// existing header bytes, which the caller laid down), preceded by the
// uvarint raw length. Returns false when compression would not shrink
// the frame — the caller then discards dst and sends the raw frame.
func compressPayload(dst *bytes.Buffer, payload []byte) bool {
	var lenbuf [binary.MaxVarintLen64]byte
	dst.Write(lenbuf[:binary.PutUvarint(lenbuf[:], uint64(len(payload)))])
	fw, _ := flateWPool.Get().(*flate.Writer)
	if fw == nil {
		fw, _ = flate.NewWriter(dst, flate.BestSpeed)
	} else {
		fw.Reset(dst)
	}
	_, werr := fw.Write(payload)
	cerr := fw.Close()
	flateWPool.Put(fw)
	if werr != nil || cerr != nil {
		return false
	}
	return dst.Len() < frameHeaderLen+len(payload)
}

// inflatePayload inflates a compressed payload (uvarint raw length then
// DEFLATE stream) into dst, growing it as needed.
func inflatePayload(payload, dst []byte) ([]byte, error) {
	rawLen, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: compressed frame length", ErrCorrupt)
	}
	if rawLen > maxFrame {
		return nil, fmt.Errorf("%w: inflated frame of %d bytes exceeds limit", ErrCorrupt, rawLen)
	}
	if cap(dst) < int(rawLen) {
		dst = make([]byte, rawLen)
	}
	dst = dst[:rawLen]
	fr, _ := flateRPool.Get().(io.ReadCloser)
	if fr == nil {
		fr = flate.NewReader(bytes.NewReader(payload[n:]))
	} else {
		fr.(flate.Resetter).Reset(bytes.NewReader(payload[n:]), nil)
	}
	defer flateRPool.Put(fr)
	if _, err := io.ReadFull(fr, dst); err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	// A trailing byte means the stream encoded more than it declared.
	var one [1]byte
	if n, _ := fr.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("%w: inflated frame longer than declared", ErrCorrupt)
	}
	return dst, nil
}
