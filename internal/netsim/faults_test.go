package netsim

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// drainListener accepts connections and reads them to the end. It
// writes nothing back: a reply would cross the faulty fabric too and
// draw from the same seeded stream as the writes under test, so the
// decision sequence would follow the goroutine schedule.
func drainListener(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}()
		}
	}()
}

func TestFaultDropIsSenderObservable(t *testing.T) {
	n := New(Options{Faults: FaultPlan{Seed: 1, Drop: 1.0}})
	ln, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drainListener(t, ln)
	conn, err := n.Dial("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); !errors.Is(err, ErrDropped) {
		t.Fatalf("Write err = %v, want ErrDropped", err)
	}
	tot := n.Stats().Snapshot().Total()
	if tot.Dropped != 1 || tot.Bytes != 0 {
		t.Errorf("dropped=%d bytes=%d, want 1 dropped and no bytes delivered", tot.Dropped, tot.Bytes)
	}
}

func TestFaultSeverDeliversPartialFrameThenEOF(t *testing.T) {
	n := New(Options{Faults: FaultPlan{Seed: 1, Sever: 1.0}})
	ln, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := n.Dial("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("abcdefgh")); !errors.Is(err, ErrSevered) {
		t.Fatalf("Write err = %v, want ErrSevered", err)
	}
	srv := <-accepted
	got, _ := io.ReadAll(srv)
	if len(got) == 0 || len(got) >= 8 {
		t.Errorf("peer read %q, want a strict non-empty prefix of the frame", got)
	}
	// The connection is dead in both directions.
	if _, err := srv.Write([]byte("x")); err == nil {
		t.Error("peer Write succeeded on a severed connection")
	}
	if n.Stats().Snapshot().Total().Severed != 1 {
		t.Error("sever not counted")
	}
}

func TestFaultDownWindowIsTransient(t *testing.T) {
	n := New(Options{Faults: FaultPlan{
		Seed:    7,
		Windows: []DownWindow{{Endpoint: "site", From: 0, Until: 80 * time.Millisecond}},
	}})
	ln, err := n.Listen("site/query")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drainListener(t, ln)
	// During the window: refused, both as destination and as source
	// (prefix matching covers the site's sub-endpoints).
	if _, err := n.Dial("user", "site/query"); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial during window: %v, want ErrRefused", err)
	}
	if _, err := n.Dial("site/query", "user"); !errors.Is(err, ErrRefused) {
		t.Fatalf("outbound dial during window: %v, want ErrRefused", err)
	}
	time.Sleep(100 * time.Millisecond)
	conn, err := n.Dial("user", "site/query")
	if err != nil {
		t.Fatalf("dial after window: %v", err)
	}
	conn.Close()
	if n.Stats().Snapshot().Total().Refused < 2 {
		t.Error("refused dials not counted")
	}
}

func TestFaultAsymmetricPartition(t *testing.T) {
	n := New(Options{Faults: FaultPlan{
		Partitions: []EdgeBlock{{From: "a.example", To: "b.example"}},
	}})
	for _, name := range []string{"a.example/query", "b.example/query"} {
		ln, err := n.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		drainListener(t, ln)
	}
	if _, err := n.Dial("a.example/query", "b.example/query"); !errors.Is(err, ErrRefused) {
		t.Fatalf("a→b: %v, want ErrRefused (partitioned)", err)
	}
	conn, err := n.Dial("b.example/query", "a.example/query")
	if err != nil {
		t.Fatalf("b→a should be open (asymmetric): %v", err)
	}
	conn.Close()
}

func TestRuntimeBlockHeals(t *testing.T) {
	n := New(Options{})
	ln, err := n.Listen("b.example/query")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drainListener(t, ln)
	n.Block("a.example", "b.example", true)
	if _, err := n.Dial("a.example/query", "b.example/query"); !errors.Is(err, ErrRefused) {
		t.Fatalf("blocked dial: %v, want ErrRefused", err)
	}
	n.Block("a.example", "b.example", false)
	conn, err := n.Dial("a.example/query", "b.example/query")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	conn.Close()
}

// TestFaultScheduleIsSeeded replays the same plan twice and checks the
// drop/sever decision sequence matches frame for frame.
func TestFaultScheduleIsSeeded(t *testing.T) {
	run := func() []bool {
		n := New(Options{Faults: FaultPlan{Seed: 42, Drop: 0.3}})
		ln, err := n.Listen("b")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		drainListener(t, ln)
		conn, err := n.Dial("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var fates []bool
		for i := 0; i < 64; i++ {
			_, err := conn.Write([]byte{byte(i)})
			fates = append(fates, err == nil)
		}
		return fates
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fate diverged at frame %d: %v vs %v", i, a[i], b[i])
		}
	}
}
