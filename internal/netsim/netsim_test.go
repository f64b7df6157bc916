package netsim

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

func TestDialAndEcho(t *testing.T) {
	n := New(Options{})
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Error(err)
			return
		}
		c.Write(buf)
	}()
	c, err := n.Dial("client", "server")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
	<-done

	sn := n.Stats().Snapshot()
	if got := sn.Edges[Edge{"client", "server"}].Bytes; got != 5 {
		t.Errorf("client->server bytes = %d", got)
	}
	if got := sn.Edges[Edge{"server", "client"}].Bytes; got != 5 {
		t.Errorf("server->client bytes = %d", got)
	}
	if got := sn.Edges[Edge{"client", "server"}].Dials; got != 1 {
		t.Errorf("dials = %d", got)
	}
}

func TestDialRefusedWhenNotListening(t *testing.T) {
	n := New(Options{})
	if _, err := n.Dial("a", "b"); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestDialRefusedAfterClose(t *testing.T) {
	n := New(Options{})
	ln, _ := n.Listen("server")
	ln.Close()
	if _, err := n.Dial("a", "server"); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v", err)
	}
	// Closing twice is fine; Accept after close fails.
	ln.Close()
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Accept after Close should fail")
	}
}

func TestPendingConnClosedOnListenerClose(t *testing.T) {
	n := New(Options{})
	ln, _ := n.Listen("server")
	c, err := n.Dial("a", "server")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // never accepted
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err != io.EOF {
		t.Fatalf("Read = %v, want EOF", err)
	}
}

func TestSetDown(t *testing.T) {
	n := New(Options{})
	n.Listen("server")
	n.SetDown("server", true)
	if _, err := n.Dial("a", "server"); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v", err)
	}
	n.SetDown("server", false)
	if _, err := n.Dial("a", "server"); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateListen(t *testing.T) {
	n := New(Options{})
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Fatal("duplicate listen should fail")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	const lat = 30 * time.Millisecond
	n := New(Options{Latency: lat})
	ln, _ := n.Listen("server")
	recv := make(chan time.Time, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 4)
		io.ReadFull(c, buf)
		recv <- time.Now()
	}()
	c, err := n.Dial("a", "server")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.Write([]byte("ping"))
	got := <-recv
	if d := got.Sub(start); d < lat {
		t.Errorf("delivered after %v, want >= %v", d, lat)
	}
}

func TestBandwidthSerializesTransmissions(t *testing.T) {
	// 1000 B/s: two 50-byte writes take >= 100ms to fully deliver.
	n := New(Options{BytesPerSecond: 1000})
	ln, _ := n.Listen("server")
	recv := make(chan time.Time, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 100)
		io.ReadFull(c, buf)
		recv <- time.Now()
	}()
	c, err := n.Dial("a", "server")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	payload := make([]byte, 50)
	c.Write(payload)
	c.Write(payload)
	got := <-recv
	if d := got.Sub(start); d < 90*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~100ms", d)
	}
}

func TestMarkMessage(t *testing.T) {
	n := New(Options{})
	ln, _ := n.Listen("server")
	go func() {
		c, _ := ln.Accept()
		if c != nil {
			defer c.Close()
			io.Copy(io.Discard, c)
		}
	}()
	c, _ := n.Dial("a", "server")
	mm, ok := c.(MessageMarker)
	if !ok {
		t.Fatal("simConn should implement MessageMarker")
	}
	mm.MarkMessage("clone")
	mm.MarkMessage("clone")
	mm.MarkMessage("result")
	sn := n.Stats().Snapshot()
	cnt := sn.Edges[Edge{"a", "server"}]
	if cnt.Messages != 3 || cnt.ByKind["clone"] != 2 || cnt.ByKind["result"] != 1 {
		t.Errorf("counters = %+v", cnt)
	}
	// A frame booked and then not written is taken back, to the point of
	// its kind disappearing; taking back what was never booked is a no-op.
	mm.UnmarkMessage("clone")
	mm.UnmarkMessage("result")
	mm.UnmarkMessage("result")
	cnt = n.Stats().Snapshot().Edges[Edge{"a", "server"}]
	if _, listed := cnt.ByKind["result"]; cnt.Messages != 1 || cnt.ByKind["clone"] != 1 || listed {
		t.Errorf("counters after unmark = %+v", cnt)
	}
}

func TestSnapshotAggregates(t *testing.T) {
	s := NewStats()
	s.AddBytes("a", "b", 10)
	s.AddBytes("a", "c", 20)
	s.AddBytes("b", "c", 5)
	s.AddMessage("a", "b", "clone")
	sn := s.Snapshot()
	if tot := sn.Total(); tot.Bytes != 35 || tot.Messages != 1 {
		t.Errorf("total = %+v", tot)
	}
	if in := sn.To("c"); in.Bytes != 25 {
		t.Errorf("to c = %+v", in)
	}
	if out := sn.From("a"); out.Bytes != 30 {
		t.Errorf("from a = %+v", out)
	}
	edges := sn.SortedEdges()
	if len(edges) != 3 || edges[0] != (Edge{"a", "b"}) {
		t.Errorf("edges = %v", edges)
	}
	// The snapshot is a copy: further mutation does not affect it.
	s.AddBytes("a", "b", 100)
	if sn.Edges[Edge{"a", "b"}].Bytes != 10 {
		t.Error("snapshot mutated by later traffic")
	}
	s.Reset()
	if len(s.Snapshot().Edges) != 0 {
		t.Error("Reset did not clear stats")
	}
}

func TestConcurrentDials(t *testing.T) {
	n := New(Options{})
	ln, _ := n.Listen("server")
	var wg sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 1)
				io.ReadFull(c, buf)
				c.Write(buf)
			}()
		}
	}()
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := n.Dial("client", "server")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.Write([]byte("x"))
			buf := make([]byte, 1)
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	ln.Close()
	sn := n.Stats().Snapshot()
	if got := sn.Edges[Edge{"client", "server"}].Dials; got != 50 {
		t.Errorf("dials = %d", got)
	}
}

func TestTCPTransport(t *testing.T) {
	tr := NewTCP()
	ln, err := tr.Listen("site/query")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		io.ReadFull(c, buf)
		c.Write(buf)
	}()
	if _, ok := tr.Resolve("site/query"); !ok {
		t.Fatal("Listen should register the endpoint")
	}
	c, err := tr.Dial("user", "site/query")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if mm, ok := c.(MessageMarker); ok {
		mm.MarkMessage("clone")
	} else {
		t.Error("tcpConn should implement MessageMarker")
	}
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	sn := tr.Stats().Snapshot()
	cnt := sn.Edges[Edge{"user", "site/query"}]
	if cnt.Bytes != 4 || cnt.Messages != 1 || cnt.Dials != 1 {
		t.Errorf("counters = %+v", cnt)
	}
	if _, err := tr.Dial("user", "nowhere"); !errors.Is(err, ErrRefused) {
		t.Errorf("err = %v", err)
	}
}
