package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"webdis/internal/netsim"
	"webdis/internal/nodequery"
)

// connPair returns a dialer/acceptor connection pair over an in-memory
// netsim fabric (buffered writes, so the lazy handshake ack never blocks
// a test the way net.Pipe's synchronous writes would).
func connPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	n := netsim.New(netsim.Options{})
	ln, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	dc, err := n.Dial("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	ac, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { dc.Close(); ac.Close() })
	return dc, ac
}

// framedPair returns a dialer/acceptor Framed pair over connPair.
func framedPair(t *testing.T) (*Framed, *Framed) {
	dc, ac := connPair(t)
	return NewFramed(dc), NewFramed(ac)
}

// countedPair is framedPair with the dialer's writes counted.
func countedPair(t *testing.T) (*Framed, *Framed, *countingConn) {
	dc, ac := connPair(t)
	cc := &countingConn{Conn: dc}
	return NewFramed(cc), NewFramed(ac), cc
}

// countingConn records the size of its last write: the bytes a frame
// occupied on the wire, hello included on a session's first frame.
type countingConn struct {
	net.Conn
	last int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.last = len(p)
	return c.Conn.Write(p)
}

// rewriteConn hands its first write to rewrite before it goes out: how a
// test makes a Framed dialer open its session as a peer this build is
// not.
type rewriteConn struct {
	net.Conn
	rewrite func([]byte) []byte
}

func (c *rewriteConn) Write(p []byte) (int, error) {
	if c.rewrite == nil {
		return c.Conn.Write(p)
	}
	q := c.rewrite(append([]byte(nil), p...))
	c.rewrite = nil
	if _, err := c.Conn.Write(q); err != nil {
		return 0, err
	}
	return len(p), nil
}

func sampleMessages() []any {
	full := sampleClone()
	full.Env = map[string]string{"d0.url": "http://x", "d0.title": "T"}
	full.Span = SpanID{Origin: "user/query", Seq: 3}
	full.Parent = SpanID{Origin: "user/query", Seq: 1}
	full.Budget = Budget{Deadline: 99999, Hops: 7, Clones: 3, Rows: 100, Weight: 2, FirstN: 10}
	full.Frag = &PlanFrag{Stage: 0, Spec: sampleSpec()}
	res := &ResultMsg{
		ID:   QueryID{User: "maya", Site: "user/results", Num: 7},
		Span: SpanID{Origin: "a.example/query", Seq: 5},
		Site: "a.example/query",
		Hop:  2,
		Updates: []CHTUpdate{{
			Processed: CHTEntry{Node: "http://a/x.html", State: State{NumQ: 2, Rem: "L*1"}, Origin: "a/q", Seq: 4},
			Children:  []CHTEntry{{Node: "http://b/y.html", State: State{NumQ: 1, Rem: "G"}, Origin: "a/q", Seq: 5}},
		}},
		Tables: []NodeTable{{
			Node: "http://a/x.html", Stage: 1,
			Cols: []string{"d0.url", "d0.title"},
			Rows: [][]string{{"http://a/x.html", "Home"}, {"http://a/y.html", "About"}},
			Env:  "d0.url=http://a",
		}},
		Spawned: []SpanLink{{Span: SpanID{Origin: "a.example/query", Seq: 6}, Site: "b.example/query"}},
		From:    "a.example/query@0",
		Inc:     3,
	}
	expired := &ResultMsg{
		ID: QueryID{User: "maya", Site: "user/results", Num: 8},
		Updates: []CHTUpdate{{
			Processed: CHTEntry{Node: "http://b/y.html", State: State{NumQ: 1, Rem: "G"}, Origin: "a/q", Seq: 5},
		}},
		Fate: FateExpired,
		Site: "b.example/query",
		Hop:  2,
		From: "b.example/query@1",
	}
	stopped, shed := *expired, *expired
	stopped.Fate, shed.Fate = FateStopped, FateShed
	return []any{
		full,
		res,
		expired,
		&stopped,
		&shed,
		&BounceMsg{Clone: sampleClone(), Reason: "retry exhausted"},
		&StopMsg{ID: QueryID{User: "maya", Site: "user/results", Num: 7}, Reason: "first-n satisfied"},
		&FetchReq{URL: "http://a.example/x.html"},
		&FetchResp{URL: "http://a.example/x.html", Content: []byte("<html><body>hi</body></html>"), Err: ""},
		&WatchMsg{ID: QueryID{User: "maya", Site: "user/w1", Num: 1}},
		&WatchMsg{ID: QueryID{User: "maya", Site: "user/w1", Num: 1}, Cancel: true},
		&DeltaMsg{
			ID:   QueryID{User: "maya", Site: "user/w1", Num: 1},
			Site: "a.example", Seq: 3,
			Edited:  []string{"http://a.example/x.html"},
			Rewired: []string{"http://a.example/y.html", "http://a.example/z.html"},
		},
	}
}

func sampleSpec() nodequery.OutputSpec {
	return nodequery.OutputSpec{
		Cols: []nodequery.OutputCol{
			{Agg: nodequery.AggNone, Ref: nodequery.ColRef{Var: "d", Col: "url"}},
			{Agg: nodequery.AggCount, Star: true},
		},
		GroupBy: []nodequery.ColRef{{Var: "d", Col: "url"}},
		OrderBy: []nodequery.OrderKey{
			{Col: nodequery.OutputCol{Agg: nodequery.AggCount, Star: true}, Desc: true},
		},
		Limit: 10,
	}
}

// TestV2RoundTripAllKinds streams every message kind over one v2
// session, so later frames exercise intern-table references, and
// asserts byte-perfect structural round trips.
func TestV2RoundTripAllKinds(t *testing.T) {
	d, a := framedPair(t)
	msgs := sampleMessages()
	errc := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := Send(d, m); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i, want := range msgs {
		got, err := Receive(a)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("message %d (%T) round trip mismatch:\nin  = %+v\nout = %+v", i, want, want, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if d.ver != MaxWireVersion || a.ver != MaxWireVersion {
		t.Errorf("negotiated versions = %d/%d, want %d/%d", d.ver, a.ver, MaxWireVersion, MaxWireVersion)
	}
}

// TestNegotiationMatrix pins every way a session can open: v5<->v5; a
// hello offering version 1, 2, 3 or 4 and a pre-v2 peer's bare gob frame,
// all refused with ErrVersion so the dialer's Settle fails; and a hello
// offering version 5, or a newer one, granted 5.
func TestNegotiationMatrix(t *testing.T) {
	offer := func(v byte) func([]byte) []byte {
		return func(p []byte) []byte { p[3] = v; return p }
	}
	gobPeer := gobFrame(t, envelope{Kind: KindClone, Clone: sampleClone()})
	cases := []struct {
		name    string
		rewrite func([]byte) []byte // the dialer's first write, as this peer sends it
		refused bool
	}{
		{"v5-both", nil, false},
		{"v1-dialer", offer(1), true},
		{"v2-dialer", offer(2), true},
		{"v3-dialer", offer(3), true},
		{"v4-dialer", offer(4), true},
		{"gob-prefix", func([]byte) []byte { return gobPeer }, true},
		{"v5-dialer", offer(5), false},
		{"v6-dialer", offer(6), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dc, ac := connPair(t)
			d, a := NewFramed(&rewriteConn{Conn: dc, rewrite: tc.rewrite}), NewFramed(ac)
			if tc.refused {
				if err := Send(d, sampleClone()); err != nil {
					t.Fatal(err)
				}
				if m, err := Receive(a); !errors.Is(err, ErrVersion) {
					t.Fatalf("acceptor took %T, err = %v; want ErrVersion", m, err)
				}
				settled := make(chan error, 1)
				go func() { settled <- Settle(d) }()
				select {
				case err := <-settled:
					if err == nil {
						t.Fatal("Settle = nil on a refused session")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Settle still waiting: the refusing acceptor left the connection open")
				}
				if d.Healthy() || a.Healthy() {
					t.Errorf("refused session still healthy (dialer %v, acceptor %v): a pool would keep it", d.Healthy(), a.Healthy())
				}
				return
			}
			msgs := []any{sampleClone(), &StopMsg{ID: QueryID{User: "u"}, Reason: "done"}, sampleClone()}
			errc := make(chan error, 1)
			go func() {
				for _, m := range msgs {
					if err := Send(d, m); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
			for i, want := range msgs {
				got, err := Receive(a)
				if err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("message %d mismatch over %s", i, tc.name)
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if d.ver != MaxWireVersion || a.ver != MaxWireVersion {
				t.Errorf("versions = %d/%d, want %d/%d", d.ver, a.ver, MaxWireVersion, MaxWireVersion)
			}
		})
	}
}

func TestPlainSenderToFramedAcceptor(t *testing.T) {
	dc, ac := connPair(t)
	a := NewFramed(ac)
	in := sampleClone()
	if err := Send(dc, in); err != nil { // bare conn: a one-frame session
		t.Fatal(err)
	}
	got, err := Receive(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Error("one-frame session mangled by framed acceptor")
	}
	if a.ver != MaxWireVersion {
		t.Errorf("acceptor settled a plain sender at v%d", a.ver)
	}
}

// TestSettleIsTheAcceptorsVerdict: an acceptor reading with
// ReceiveUnacked sends the handshake ack when it comes back to the session
// after its first message, so a dialer that settles learns whether the
// message was taken: nil once the acceptor reads on (or answers), an error
// when it closed instead. A plain Receive acks at once.
func TestSettleIsTheAcceptorsVerdict(t *testing.T) {
	settle := func(d *Framed) chan error {
		done := make(chan error, 1)
		go func() {
			err := Send(d, sampleClone())
			if err == nil {
				err = Settle(d)
			}
			done <- err
		}()
		return done
	}
	t.Run("kept", func(t *testing.T) {
		d, a := framedPair(t)
		done := settle(d)
		if _, err := ReceiveUnacked(a); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			t.Fatalf("Settle returned %v before the acceptor came back", err)
		case <-time.After(20 * time.Millisecond):
		}
		go ReceiveUnacked(a) // the acceptor reads on: it keeps the session
		if err := <-done; err != nil {
			t.Fatalf("Settle = %v on a kept session", err)
		}
		if err := Settle(d); err != nil {
			t.Errorf("second Settle = %v", err)
		}
	})
	t.Run("answered", func(t *testing.T) {
		d, a := framedPair(t)
		done := settle(d)
		if _, err := ReceiveUnacked(a); err != nil {
			t.Fatal(err)
		}
		if err := Send(a, &ResultMsg{ID: sampleClone().ID}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Settle = %v on an answered session", err)
		}
		if _, err := Receive(d); err != nil {
			t.Errorf("answer lost behind the ack: %v", err)
		}
	})
	t.Run("refused", func(t *testing.T) {
		d, a := framedPair(t)
		done := settle(d)
		if _, err := ReceiveUnacked(a); err != nil {
			t.Fatal(err)
		}
		a.Close()
		if err := <-done; err == nil {
			t.Fatal("Settle = nil on a session the acceptor closed")
		}
		if d.Healthy() {
			t.Error("refused session still healthy: a pool would keep it")
		}
	})
	t.Run("plain receive", func(t *testing.T) {
		d, a := framedPair(t)
		done := settle(d)
		if _, err := Receive(a); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Settle = %v against a plain Receive", err)
		}
	})
}

// TestV2TruncatedFrameTyped kills the connection mid-frame and asserts
// the typed truncation error — and that no torn frame is ever delivered.
func TestV2TruncatedFrameTyped(t *testing.T) {
	d, a := framedPair(t)
	if err := Send(d, sampleClone()); err != nil {
		t.Fatal(err)
	}
	if _, err := Receive(a); err != nil {
		t.Fatal(err)
	}
	// Hand-write a frame header that promises 100 bytes, deliver 10, die.
	d.Conn.Write([]byte{0, 0, 0, 100, codeClone, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	d.Conn.Close()
	_, err := Receive(a)
	if err == nil {
		t.Fatal("torn frame delivered")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// The session is now poisoned: every later receive fails fast.
	if a.Healthy() {
		t.Error("session still healthy after a torn frame")
	}
	if _, err := Receive(a); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("post-poison err = %v, want ErrPoisoned", err)
	}
}

func TestV2CorruptFrameTyped(t *testing.T) {
	for name, frame := range map[string][]byte{
		"unknown-kind":  {0, 0, 0, 2, 0xEE, 0},
		"unknown-flags": {0, 0, 0, 2, codeStop, 0x80},
		"tiny-frame":    {0, 0, 0, 1, codeStop},
		"bad-payload":   {0, 0, 0, 6, codeClone, 0, 0xFF, 0xFF, 0xFF, 0xFF},
		"trailing":      {0, 0, 0, 12, codeFetchReq, 0, 0, 1, 'x', 9, 9, 9, 9, 9, 9, 9},
	} {
		t.Run(name, func(t *testing.T) {
			d, a := framedPair(t)
			if err := Send(d, &FetchReq{URL: "warm"}); err != nil {
				t.Fatal(err)
			}
			if _, err := Receive(a); err != nil {
				t.Fatal(err)
			}
			d.Conn.Write(frame)
			_, err := Receive(a)
			if err == nil {
				t.Fatal("corrupt frame delivered")
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("err = %v, want typed corrupt/truncated", err)
			}
			if a.Healthy() {
				t.Error("session still healthy after corrupt frame")
			}
		})
	}
}

// TestSendErrorLatch poisons the sending side on a dead transport and
// asserts fail-fast sends plus pool eviction via the health check.
func TestSendErrorLatch(t *testing.T) {
	d, a := framedPair(t)
	a.Close()
	var sendErr error
	// The buffered transport may accept a frame or two before the close
	// propagates; keep sending until the error surfaces.
	for i := 0; i < 100 && sendErr == nil; i++ {
		sendErr = Send(d, sampleClone())
		time.Sleep(time.Millisecond)
	}
	if sendErr == nil {
		t.Fatal("send to a closed peer never failed")
	}
	if d.Healthy() {
		t.Error("session still healthy after send failure")
	}
	if err := Send(d, sampleClone()); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("post-poison send err = %v, want ErrPoisoned", err)
	}
}

// TestCompressionRoundTrip pushes one wide result frame past compressMin
// and asserts both structural equality and a measured wire-byte
// reduction.
func TestCompressionRoundTrip(t *testing.T) {
	d, a, cc := countedPair(t)
	big := &ResultMsg{ID: QueryID{User: "maya", Site: "user/results", Num: 1}, Site: "s"}
	for i := 0; i < 64; i++ {
		tbl := NodeTable{Node: fmt.Sprintf("http://site%d/x.html", i), Cols: []string{"d0.url", "d0.text"}}
		for j := 0; j < 32; j++ {
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("http://site%d/page%d.html", i, j),
				strings.Repeat("the quick brown fox jumps over the lazy dog ", 4),
			})
		}
		big.Tables = append(big.Tables, tbl)
	}
	raw := EncodedSize(big)
	if raw < compressMin {
		t.Fatalf("test payload too small to trigger compression: %d", raw)
	}
	errc := make(chan error, 1)
	go func() { errc <- Send(d, big) }()
	got, err := Receive(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(big, got) {
		t.Fatal("compressed round trip mismatch")
	}
	if wireBytes := cc.last - 4; wireBytes <= 0 || wireBytes >= raw { // less the hello
		t.Errorf("compressed frame = %d bytes, raw = %d: no reduction", wireBytes, raw)
	}
}

// TestInternTableBound overflows the per-direction intern cap and
// asserts frames keep round-tripping (the encoder degrades to literals).
func TestInternTableBound(t *testing.T) {
	t.Run("one frame", func(t *testing.T) {
		d, a := framedPair(t)
		in := sampleClone()
		in.Dest = nil
		for i := 0; i < maxInternEntries+100; i++ {
			in.Dest = append(in.Dest, DestNode{URL: fmt.Sprintf("http://h%d/p.html", i), Origin: "o", Seq: int64(i)})
		}
		errc := make(chan error, 1)
		go func() {
			errc <- Send(d, in)
			errc <- Send(d, in) // second frame: refs for interned, literals past the cap
		}()
		for i := 0; i < 2; i++ {
			got, err := Receive(a)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, got) {
				t.Fatalf("frame %d mismatch past intern cap", i)
			}
		}
	})

	// The long-lived session: a site keeps one connection to a user-site's
	// collector for the client's lifetime, so its table fills over
	// thousands of result frames rather than in one. Every frame carries
	// strings the session has never seen; once the direction's table is
	// full, new strings travel as literals, interned ones keep resolving,
	// and the decoder never sees the overflow it rejects.
	t.Run("across frames", func(t *testing.T) {
		d, a := framedPair(t)
		frame := func(i int) *ResultMsg {
			url := fmt.Sprintf("http://h%d.example/p.html", i)
			return &ResultMsg{ID: QueryID{User: "maya", Site: "user/c", Num: i + 1}, Tables: []NodeTable{{
				Node: url, Stage: 0, Cols: []string{"d.url", "d.title"},
				Rows: [][]string{{url, fmt.Sprintf("title %d", i)}},
			}}}
		}
		const frames = maxInternEntries + 500 // two fresh strings each: full before half-way
		// An early frame again at the end (all references) and the last
		// (all literals).
		order := make([]int, 0, frames+2)
		for i := 0; i < frames; i++ {
			order = append(order, i)
		}
		order = append(order, 0, frames-1)
		errc := make(chan error, 1)
		go func() {
			for _, i := range order {
				if err := Send(d, frame(i)); err != nil {
					errc <- fmt.Errorf("send %d: %w", i, err)
					return
				}
			}
			errc <- nil
		}()
		for _, i := range order {
			got, err := Receive(a)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if want := frame(i); !reflect.DeepEqual(want, got) {
				t.Fatalf("frame %d mismatch past intern cap:\ngot  %+v\nwant %+v", i, got, want)
			}
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if n := len(d.enc.tab); n != maxInternEntries {
			t.Errorf("sender interned %d strings, want the cap %d", n, maxInternEntries)
		}
	})
}

// nullConn swallows writes: the encode-allocation and encode-benchmark
// sink.
type nullConn struct{ net.Conn }

func (nullConn) Write(p []byte) (int, error) { return len(p), nil }
func (nullConn) Read(p []byte) (int, error)  { return 0, io.EOF }
func (nullConn) Close() error                { return nil }
func (nullConn) SetDeadline(time.Time) error { return nil }
func (nullConn) LocalAddr() net.Addr         { return nil }
func (nullConn) RemoteAddr() net.Addr        { return nil }

// TestEncodeSteadyStateAllocs pins a steady-state encode — buffers
// grown, table populated — at zero allocations per frame.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	f := &Framed{Conn: nullConn{}, ver: MaxWireVersion}
	msg := sampleClone()
	for i := 0; i < 8; i++ { // warm the buffer and intern table
		if err := Send(f, msg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := Send(f, msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state encode = %.1f allocs/frame, want 0", allocs)
	}
}

// TestEncodedSizeMatchesWire pins EncodedSize to the bytes a fresh
// session actually puts on the wire for an uncompressed frame.
func TestEncodedSizeMatchesWire(t *testing.T) {
	d, a, cc := countedPair(t)
	msg := sampleClone()
	errc := make(chan error, 1)
	go func() { errc <- Send(d, msg) }()
	if _, err := Receive(a); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if wireBytes, want := cc.last-4, EncodedSize(msg); wireBytes != want { // less the hello
		t.Errorf("first frame = %d wire bytes, EncodedSize = %d", wireBytes, want)
	}
	if EncodedSize("not a message") != 0 {
		t.Error("EncodedSize of a non-message should be 0")
	}
	tbl := &NodeTable{Node: "n", Cols: []string{"a"}, Rows: [][]string{{"x"}}}
	if TableSize(tbl) <= 0 {
		t.Error("TableSize of a non-empty table should be positive")
	}
}

// TestV2MatchesGobOracle streams every sample over one session and
// asserts it arrives as exactly what the gob oracle reconstructs.
func TestV2MatchesGobOracle(t *testing.T) {
	d, a := framedPair(t)
	msgs := sampleMessages()
	errc := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := Send(d, m); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i, msg := range msgs {
		got, err := Receive(a)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if want := gobCanonical(t, msg); !reflect.DeepEqual(want, got) {
			t.Errorf("sample %d: v2 and gob disagree:\nv2  = %+v\ngob = %+v", i, got, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestV2SteadyStateSmallerThanGob: on a warm session — intern tables
// filled, gob's type descriptors already sent — every message costs fewer
// bytes as a v2 frame than as a length-prefixed frame of a persistent gob
// stream.
func TestV2SteadyStateSmallerThanGob(t *testing.T) {
	for name, msg := range benchMessages() {
		env, err := wrap(msg)
		if err != nil {
			t.Fatal(err)
		}
		cc := &countingConn{Conn: nullConn{}}
		f := &Framed{Conn: cc, ver: MaxWireVersion}
		var buf bytes.Buffer
		ge := gob.NewEncoder(&buf)
		for i := 0; i < 2; i++ { // the second frame is the steady state
			if err := Send(f, msg); err != nil {
				t.Fatal(err)
			}
			buf.Reset()
			if err := ge.Encode(&env); err != nil {
				t.Fatal(err)
			}
		}
		v2, gobBytes := cc.last, 4+buf.Len()
		t.Logf("%s: v2 %d B, gob %d B", name, v2, gobBytes)
		if v2 >= gobBytes {
			t.Errorf("%s: steady-state v2 frame %d B, gob %d B: want v2 smaller", name, v2, gobBytes)
		}
	}
}

// steadyResultPayload encodes m twice on one encoder and returns the
// second payload — refs only, as the later frames of a session are —
// and a decoder whose intern table has taken the first.
func steadyResultPayload(t *testing.T, m *ResultMsg) ([]byte, *decoder) {
	t.Helper()
	env, err := wrap(m)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := newEncoder(), newDecoder()
	if err := encodeEnvelope(enc, &env); err != nil {
		t.Fatal(err)
	}
	dec.reset(enc.buf)
	if _, err := decodeEnvelope(dec, codeResult); err != nil {
		t.Fatal(err)
	}
	enc.buf = enc.buf[:0]
	if err := encodeEnvelope(enc, &env); err != nil {
		t.Fatal(err)
	}
	return enc.buf, dec
}

// oneRowTables is a result frame of n one-row tables, one per node, all
// of the columns ["d.url"].
func oneRowTables(n int) *ResultMsg {
	m := &ResultMsg{ID: QueryID{User: "u", Site: "user/c", Num: 1}}
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://t%d.example/p%d.html", i%7, i)
		m.Tables = append(m.Tables, NodeTable{Node: url, Cols: []string{"d.url"}, Rows: [][]string{{url}}})
	}
	return m
}

// TestDecodeResultAllocs pins a steady-state result frame's decode at a
// fixed number of allocations, whatever it carries: the message, its
// table list, one block of row headers and one of cells.
func TestDecodeResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, n := range []int{1, 8, 64} {
		m := oneRowTables(n)
		payload, dec := steadyResultPayload(t, m)
		var got *ResultMsg
		allocs := testing.AllocsPerRun(100, func() {
			dec.reset(payload)
			msg, err := decodeEnvelope(dec, codeResult)
			if err != nil {
				t.Fatal(err)
			}
			got = msg.(*ResultMsg)
		})
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%d tables: decoded %+v, want %+v", n, got, m)
		}
		if allocs != 4 {
			t.Errorf("%d one-row tables: %.0f allocations per frame, want 4", n, allocs)
		}
	}
}

// TestDecodedRowsIndependent: the rows of a decoded frame share blocks,
// each capped at its own cells, so appending to one row or overwriting
// its cells leaves every other row of the frame as it was. Tables with
// equal columns share one Cols.
func TestDecodedRowsIndependent(t *testing.T) {
	m := oneRowTables(5)
	m.Tables[1].Rows = [][]string{{"a", "b", "c"}, nil, {"d"}, {"e", "f"}}
	m.Tables[3].Rows = nil
	out, _, _ := v2RoundTrip(t, m)
	got := out.(*ResultMsg)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("decoded %+v, want %+v", got, m)
	}
	if &got.Tables[0].Cols[0] != &got.Tables[4].Cols[0] {
		t.Error("tables with equal columns decoded with a Cols slice each")
	}
	var rows [][]string
	for _, tbl := range got.Tables {
		rows = append(rows, tbl.Rows...)
	}
	want := make([][]string, len(rows))
	for i, r := range rows {
		want[i] = slices.Clone(r)
	}
	for i := range rows {
		rows[i] = append(rows[i], "appended")
		for j := range rows[i] {
			rows[i][j] = "overwritten"
		}
		for k, r := range rows {
			if k != i && !slices.Equal(r, want[k]) {
				t.Fatalf("writing row %d changed row %d: %q, want %q", i, k, r, want[k])
			}
		}
		rows[i] = want[i]
	}
}
