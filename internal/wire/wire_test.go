package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"net"
	"reflect"
	"strings"
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
		"one-shot":  func(c net.Conn) error { return Send(c, sampleClone()) },
		"framed v2": func(c net.Conn) error { return Send(NewFramed(c), sampleClone()) },
		"framed v1": func(c net.Conn) error { return Send(NewFramedOpts(c, FramedOptions{Offer: 1}), sampleClone()) },
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

func TestReceiveGarbage(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go c1.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Receive(c2); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v", err)
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
	if s.Key() != "2|L*1" {
		t.Errorf("key = %s", s.Key())
	}
	e := CHTEntry{Node: "http://x", State: s, Origin: "a/query", Seq: 9}
	if e.Key() != "http://x§2|L*1§a/query§9" {
		t.Errorf("entry key = %s", e.Key())
	}
	e2 := CHTEntry{Node: "http://x", State: s, Origin: "a/query", Seq: 10}
	if e.Key() == e2.Key() {
		t.Error("distinct clone instances must have distinct keys")
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

func TestReceiveMalformedEnvelopes(t *testing.T) {
	// Hand-craft envelopes whose kind does not match their payload.
	send := func(env envelope) (any, error) {
		c1, c2 := net.Pipe()
		defer c1.Close()
		defer c2.Close()
		go func() {
			var buf bytes.Buffer
			buf.Write(make([]byte, 4))
			gob.NewEncoder(&buf).Encode(&env)
			frame := buf.Bytes()
			binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
			c1.Write(frame)
		}()
		return Receive(c2)
	}
	for _, env := range []envelope{
		{Kind: KindClone},                        // empty clone
		{Kind: KindResult},                       // empty result
		{Kind: KindBounce},                       // empty bounce
		{Kind: KindFetchReq},                     // empty fetch request
		{Kind: KindFetchResp},                    // empty fetch response
		{Kind: "mystery"},                        // unknown kind
		{Kind: KindBounce, Bounce: &BounceMsg{}}, // bounce without clone
	} {
		if _, err := send(env); err == nil {
			t.Errorf("envelope %q should fail to receive", env.Kind)
		}
	}
}

func TestReceiveShortFrame(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() {
		c1.Write([]byte{0, 0, 0, 50, 1, 2, 3}) // claims 50 bytes, sends 3
		c1.Close()
	}()
	if _, err := Receive(c2); err == nil {
		t.Fatal("short frame should fail")
	}
}

func TestReceiveBadGob(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() {
		payload := []byte("this is not gob data....")
		frame := append([]byte{0, 0, 0, byte(len(payload))}, payload...)
		c1.Write(frame)
		c1.Close()
	}()
	if _, err := Receive(c2); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatal("bad gob should fail to decode")
	}
}

func TestShedRoundTrip(t *testing.T) {
	in := &ShedMsg{Clone: sampleClone(), Site: "b.example/query"}
	out, ok := roundTrip(t, in).(*ShedMsg)
	if !ok || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
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
