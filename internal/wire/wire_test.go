package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"webdis/internal/netsim"
	"webdis/internal/nodequery"
)

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	errc := make(chan error, 1)
	go func() { errc <- Send(c1, msg) }()
	got, err := Receive(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return got
}

func sampleClone() *CloneMsg {
	return &CloneMsg{
		ID: QueryID{User: "maya", Site: "user/results", Num: 7},
		Dest: []DestNode{
			{URL: "http://a.example/x.html", Origin: "b.example/query", Seq: 1},
			{URL: "http://a.example/y.html", Origin: "b.example/query", Seq: 2},
		},
		Rem:  "G|L",
		Base: 1,
		Stages: []StageMsg{
			{
				PRE: "G·(G|L)",
				Query: &nodequery.Query{
					Vars: []nodequery.VarDecl{
						{Name: "d", Rel: "document"},
						{Name: "r", Rel: "relinfon",
							Cond: nodequery.Compare(nodequery.ColOperand("r", "delimiter"), nodequery.Eq, nodequery.LitOperand("hr"))},
					},
					Where:  nodequery.Compare(nodequery.ColOperand("r", "text"), nodequery.Contains, nodequery.LitOperand("convener")),
					Select: []nodequery.ColRef{{Var: "d", Col: "url"}, {Var: "r", Col: "text"}},
				},
			},
		},
		Hops: 3,
	}
}

func TestCloneRoundTrip(t *testing.T) {
	in := sampleClone()
	out, ok := roundTrip(t, in).(*CloneMsg)
	if !ok {
		t.Fatalf("got %T", out)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  = %+v\nout = %+v", in, out)
	}
	if out.Stages[0].Query.Where.String() != in.Stages[0].Query.Where.String() {
		t.Error("predicate tree damaged in transit")
	}
	if got := out.State(); got.NumQ != 1 || got.Rem != "G|L" {
		t.Errorf("state = %v", got)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &ResultMsg{
		ID: QueryID{User: "maya", Site: "user/results", Num: 7},
		Updates: []CHTUpdate{
			{
				Processed: CHTEntry{Node: "http://a.example/x.html", State: State{NumQ: 2, Rem: "L*1"}},
				Children: []CHTEntry{
					{Node: "http://b.example/y.html", State: State{NumQ: 1, Rem: "G·L*1"}},
				},
			},
		},
		Tables: []NodeTable{
			{Node: "http://a.example/x.html", Stage: 0,
				Cols: []string{"d0.url"}, Rows: [][]string{{"http://a.example/x.html"}}},
		},
	}
	out, ok := roundTrip(t, in).(*ResultMsg)
	if !ok || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestFetchRoundTrip(t *testing.T) {
	req, ok := roundTrip(t, &FetchReq{URL: "http://a.example/x.html"}).(*FetchReq)
	if !ok || req.URL != "http://a.example/x.html" {
		t.Fatalf("req = %+v", req)
	}
	resp, ok := roundTrip(t, &FetchResp{URL: "u", Content: []byte("<html>"), Err: ""}).(*FetchResp)
	if !ok || string(resp.Content) != "<html>" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestSendUnknownType(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if err := Send(c1, "not a message"); err == nil {
		t.Fatal("Send(string) should fail")
	}
}

func TestMultipleMessagesOneConn(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		Send(c1, &FetchReq{URL: "one"})
		Send(c1, &FetchReq{URL: "two"})
		Send(c1, sampleClone())
	}()
	for _, want := range []string{"one", "two"} {
		m, err := Receive(c2)
		if err != nil {
			t.Fatal(err)
		}
		if m.(*FetchReq).URL != want {
			t.Fatalf("got %+v, want %s", m, want)
		}
	}
	if m, err := Receive(c2); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*CloneMsg); !ok {
		t.Fatalf("got %T", m)
	}
}

func TestMessageMarkedOnInstrumentedConn(t *testing.T) {
	n := netsim.New(netsim.Options{})
	ln, _ := n.Listen("server")
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		Receive(c)
	}()
	c, err := n.Dial("user", "server")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := Send(c, sampleClone()); err != nil {
		t.Fatal(err)
	}
	sn := n.Stats().Snapshot()
	cnt := sn.Edges[netsim.Edge{From: "user", To: "server"}]
	if cnt.Messages != 1 || cnt.ByKind[KindClone] != 1 {
		t.Errorf("counters = %+v", cnt)
	}
	if cnt.Bytes < 100 {
		t.Errorf("clone bytes = %d, implausibly small", cnt.Bytes)
	}
}

// markedConn records when a frame is booked relative to when it is
// written, and can refuse the write.
type markedConn struct {
	net.Conn
	fail   bool
	booked int
	seen   []int // booked count at each Write
}

func (c *markedConn) MarkMessage(string)   { c.booked++ }
func (c *markedConn) UnmarkMessage(string) { c.booked-- }
func (c *markedConn) Write(p []byte) (int, error) {
	c.seen = append(c.seen, c.booked)
	if c.fail {
		return 0, net.ErrClosed
	}
	return len(p), nil
}

// TestFrameBookedBeforeWritten: on every send path a frame is in the
// books by the time its bytes can reach a reader, and out of them again
// if the write fails.
func TestFrameBookedBeforeWritten(t *testing.T) {
	sends := map[string]func(c net.Conn) error{
		"one-shot": func(c net.Conn) error { return Send(c, sampleClone()) },
		"framed":   func(c net.Conn) error { return Send(NewFramed(c), sampleClone()) },
	}
	for name, send := range sends {
		for _, fail := range []bool{false, true} {
			c := &markedConn{fail: fail}
			if err := send(c); (err != nil) != fail {
				t.Fatalf("%s (fail=%v): err = %v", name, fail, err)
			}
			if len(c.seen) != 1 || c.seen[0] != 1 {
				t.Errorf("%s (fail=%v): books at write time = %v, want the frame already booked", name, fail, c.seen)
			}
			if want := map[bool]int{false: 1, true: 0}[fail]; c.booked != want {
				t.Errorf("%s (fail=%v): %d frames booked afterwards, want %d", name, fail, c.booked, want)
			}
		}
	}
}

// TestReceiveGarbage: four bytes that are no hello refuse the session.
func TestReceiveGarbage(t *testing.T) {
	if err := receiveRaw([]byte{0xFF, 0xFF, 0xFF, 0xFF}); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// receiveRaw feeds raw bytes to a Framed receiver, closes the sending
// side, and returns the error Receive made of them.
func receiveRaw(raw []byte) error {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() {
		c1.Write(raw)
		c1.Close()
	}()
	m, err := Receive(NewFramed(c2))
	if err == nil {
		return fmt.Errorf("received %T", m)
	}
	return err
}

// hello is a dialer's opening four bytes, prefixed to raw frames so the
// receiver reads them as frames of a settled session.
func hello(frame []byte) []byte {
	return append([]byte{helloMagic[0], helloMagic[1], helloMagic[2], MaxWireVersion}, frame...)
}

// gobFrame is what a pre-v2 one-shot sender wrote: a 4-byte length
// prefix and a one-message gob stream carrying env.
func gobFrame(t testing.TB, env envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(make([]byte, 4))
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return frame
}

// wantTyped asserts that raw, sent bare, is refused with ErrVersion and,
// sent after a hello, fails with a typed frame error.
func wantTyped(t *testing.T, name string, raw []byte) {
	t.Helper()
	if err := receiveRaw(raw); !errors.Is(err, ErrVersion) {
		t.Errorf("%s without hello: err = %v, want ErrVersion", name, err)
	}
	if err := receiveRaw(hello(raw)); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Errorf("%s after hello: err = %v, want ErrCorrupt or ErrTruncated", name, err)
	}
}

func TestQueryIDAndStateStrings(t *testing.T) {
	id := QueryID{User: "maya", Site: "user/results", Num: 3}
	if id.String() != "maya@user/results#3" {
		t.Errorf("id = %s", id)
	}
	s := State{NumQ: 2, Rem: "L*1"}
	if s.String() != "(2, L*1)" {
		t.Errorf("state = %s", s)
	}
}

func TestCloneEnvRoundTrip(t *testing.T) {
	in := sampleClone()
	in.Env = map[string]string{"d0.title": "Laboratories of the CSA Department", "d0.url": "http://x"}
	in.Stages[0].Export = []string{"title"}
	out, ok := roundTrip(t, in).(*CloneMsg)
	if !ok || !reflect.DeepEqual(in.Env, out.Env) || out.Stages[0].Export[0] != "title" {
		t.Fatalf("env round trip: %+v", out)
	}
}

func TestEnvKey(t *testing.T) {
	if EnvKey(nil) != "" || EnvKey(map[string]string{}) != "" {
		t.Error("empty env should key to empty string")
	}
	a := EnvKey(map[string]string{"x": "1", "y": "2"})
	b := EnvKey(map[string]string{"y": "2", "x": "1"})
	if a != b {
		t.Error("EnvKey must be order-independent")
	}
	c := EnvKey(map[string]string{"x": "1", "y": "3"})
	if a == c {
		t.Error("different values must key differently")
	}
}

// TestReceiveMalformedEnvelopes: gob frames of envelopes whose kind does
// not match their payload are no sessions this build speaks.
func TestReceiveMalformedEnvelopes(t *testing.T) {
	for _, env := range []envelope{
		{Kind: KindClone},                        // empty clone
		{Kind: KindResult},                       // empty result
		{Kind: KindBounce},                       // empty bounce
		{Kind: KindFetchReq},                     // empty fetch request
		{Kind: KindFetchResp},                    // empty fetch response
		{Kind: "mystery"},                        // unknown kind
		{Kind: KindBounce, Bounce: &BounceMsg{}}, // bounce without clone
	} {
		wantTyped(t, "envelope "+env.Kind, gobFrame(t, env))
	}
}

func TestReceiveShortFrame(t *testing.T) {
	wantTyped(t, "short frame", []byte{0, 0, 0, 50, 1, 2, 3}) // claims 50 bytes, sends 3
}

func TestReceiveBadGob(t *testing.T) {
	payload := []byte("this is not gob data....")
	wantTyped(t, "bad gob", append([]byte{0, 0, 0, byte(len(payload))}, payload...))
}

// TestFateRoundTrip: every typed retirement travels as one result frame
// whose fate byte comes back as sent.
func TestFateRoundTrip(t *testing.T) {
	for _, f := range []Fate{FateProcessed, FateExpired, FateStopped, FateShed} {
		in := &ResultMsg{
			ID:      QueryID{User: "u", Site: "user/c", Num: 3},
			Updates: sampleClone().Retirements(),
			Fate:    f,
		}
		out, ok := roundTrip(t, in).(*ResultMsg)
		if !ok || !reflect.DeepEqual(in, out) {
			t.Fatalf("fate %d: round trip mismatch: %+v vs %+v", f, in, out)
		}
	}
}

func TestBudgetRoundTrip(t *testing.T) {
	in := sampleClone()
	in.Budget = Budget{Deadline: 12345, Hops: 4, Clones: 9, Rows: 100, Weight: 3}
	out := roundTrip(t, in).(*CloneMsg)
	if !reflect.DeepEqual(in.Budget, out.Budget) {
		t.Fatalf("budget mismatch: %+v vs %+v", in.Budget, out.Budget)
	}
}

func TestBudgetSemantics(t *testing.T) {
	if !(Budget{}).IsZero() {
		t.Error("zero budget must be unlimited")
	}
	if (Budget{Weight: 1}).IsZero() {
		t.Error("weighted budget is not zero")
	}
	b := Budget{Deadline: 100}
	if b.ExpiredAt(100) {
		t.Error("deadline is inclusive")
	}
	if !b.ExpiredAt(101) {
		t.Error("past the deadline must expire")
	}
	if (Budget{}).ExpiredAt(1 << 60) {
		t.Error("no deadline never expires")
	}
	// Hop quota spends down through the -1 exhaustion sentinel, never
	// landing on the unlimited 0.
	b = Budget{Hops: 2}
	if b = b.Spend(); b.Hops != 1 {
		t.Fatalf("hops after one spend = %d", b.Hops)
	}
	if b = b.Spend(); b.Hops != -1 {
		t.Fatalf("hops after two spends = %d, want -1 (exhausted)", b.Hops)
	}
	if b = b.Spend(); b.Hops != -1 {
		t.Fatalf("spending an exhausted budget changed it: %d", b.Hops)
	}
	if b = (Budget{}).Spend(); b.Hops != 0 {
		t.Fatalf("unlimited hops spent to %d", b.Hops)
	}
}
