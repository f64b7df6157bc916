package client

import (
	"testing"
	"time"

	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/trace"
	"webdis/internal/wire"
)

func processedReply(clone *wire.CloneMsg) *wire.ResultMsg {
	return &wire.ResultMsg{ID: clone.ID, Updates: clone.Retirements()}
}

func TestSessionRoutesConcurrentQueries(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	q1, err := s.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	if s.Live() != 2 {
		t.Errorf("live = %d", s.Live())
	}
	c1, c2 := f.recv(), f.recv()
	// Both clones report back to the one shared collector endpoint; the
	// session must route each report to its own query by id.
	if c1.ID.Site != s.Endpoint() || c2.ID.Site != s.Endpoint() {
		t.Fatalf("clone sites = %q, %q, want %q", c1.ID.Site, c2.ID.Site, s.Endpoint())
	}
	if c1.ID.Num == c2.ID.Num {
		t.Fatalf("queries share id %d", c1.ID.Num)
	}
	// Finish the second query first: completion order is independent.
	if err := f.reply(c2.ID, processedReply(c2)); err != nil {
		t.Fatal(err)
	}
	second := q2
	if c2.ID.Num == q1.ID().Num {
		second = q1
	}
	if err := second.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	pooled, err := f.open(c1.ID, processedReply(c1))
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	if err := q1.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := q2.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 0 {
		t.Errorf("live after completion = %d", s.Live())
	}
	// A straggler for a finished query on the site's pooled connection is
	// dropped by the router, not an error at the sender: the endpoint is
	// still open and the connection carries the client's other queries.
	if err := wire.Send(pooled, processedReply(c1)); err != nil {
		t.Errorf("straggler send failed at sender: %v", err)
	}
}

func TestSessionShedSurfaced(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q, err := s.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	// The server refuses the fresh clone: a typed SHED bounce retires its
	// entries and surfaces on the query.
	conn, err := n.Dial("a.example/query", clone.ID.Site)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Send(conn, &wire.ShedMsg{Clone: clone, Site: "a.example"}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := q.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !q.Shed() {
		t.Error("Shed() = false after a SHED bounce")
	}
	if len(q.Results()) != 0 {
		t.Errorf("shed query produced results: %+v", q.Results())
	}
}

func TestSessionExpiredFateReconciles(t *testing.T) {
	// The TCP-stitch path: an EXPIRED report carries only its span context
	// over the wire, and the client books it so the reconstructed journey
	// shows FateExpired — the remote site's journal is never read.
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := NewWith(n, "u", "user", Options{Journal: trace.NewJournal("user", 0)})
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q, err := s.SubmitBudget(disql.MustParse(oneStage),
		wire.Budget{Deadline: time.Now().Add(-time.Millisecond).UnixNano()})
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	if clone.Span.IsZero() {
		t.Fatal("traced dispatch has no span")
	}
	if clone.Budget.Deadline == 0 {
		t.Fatal("budget not carried on the wire")
	}
	rm := processedReply(clone)
	rm.Expired = true
	rm.Span = clone.Span
	rm.Site = "a.example"
	if err := f.reply(clone.ID, rm); err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	jy := trace.BuildJourney(q.ID().String(), q.TraceEvents())
	node := jy.Spans[clone.Span]
	if node == nil {
		t.Fatal("dispatched span missing from stitched journey")
	}
	if node.Fate != trace.FateExpired {
		t.Errorf("fate = %q, want %q", node.Fate, trace.FateExpired)
	}
	if node.Site != "a.example" {
		t.Errorf("site = %q", node.Site)
	}
}

func TestSessionSubmitAfterClose(t *testing.T) {
	n := netsim.New(netsim.Options{})
	newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(disql.MustParse(oneStage)); err != ErrSessionClosed {
		t.Fatalf("Submit after Close = %v", err)
	}
}

func TestSessionCloseCancelsLiveQueries(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	s.Close()
	if err := q.Wait(time.Second); err != ErrCancelled {
		t.Fatalf("Wait after session close = %v", err)
	}
	// Passive termination at session granularity: the client's endpoint
	// stays open, but it no longer takes a report of the closed session's
	// query, so a late report fails at its sender.
	if err := f.reply(clone.ID, processedReply(clone)); err == nil {
		t.Error("reply after session close should fail")
	}
}
