package client

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/wire"
)

// fakeServer accepts clones and stops at a site endpoint and lets the
// test send hand-crafted ResultMsgs back to the client's collector.
type fakeServer struct {
	t    *testing.T
	net  *netsim.Network
	site string

	clones chan *wire.CloneMsg
	stops  chan *wire.StopMsg
}

func newFakeServer(t *testing.T, n *netsim.Network, site string) *fakeServer {
	f := &fakeServer{t: t, net: n, site: site,
		clones: make(chan *wire.CloneMsg, 16), stops: make(chan *wire.StopMsg, 16)}
	ln, err := n.Listen(server.Endpoint(site))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				framed := wire.NewFramed(conn)
				for {
					msg, err := wire.Receive(framed)
					if err != nil {
						return
					}
					switch m := msg.(type) {
					case *wire.CloneMsg:
						f.clones <- m
					case *wire.StopMsg:
						f.stops <- m
					}
				}
			}()
		}
	}()
	return f
}

func (f *fakeServer) recv() *wire.CloneMsg {
	select {
	case c := <-f.clones:
		return c
	case <-time.After(5 * time.Second):
		f.t.Fatal("no clone received")
		return nil
	}
}

func (f *fakeServer) recvStop() *wire.StopMsg {
	select {
	case m := <-f.stops:
		return m
	case <-time.After(5 * time.Second):
		f.t.Fatal("no stop received")
		return nil
	}
}

// reply reports the way a site without a session to the collector does:
// it opens one, sends, and waits for the collector to take the report.
func (f *fakeServer) reply(id wire.QueryID, msg any) error {
	conn, err := f.open(id, msg)
	if err == nil {
		conn.Close()
	}
	return err
}

// open is reply that keeps the session, as a site's pool does.
func (f *fakeServer) open(id wire.QueryID, msg any) (*wire.Framed, error) {
	conn, err := f.net.Dial(server.Endpoint(f.site), id.Site)
	if err != nil {
		return nil, err
	}
	framed := wire.NewFramed(conn)
	if err = wire.Send(framed, msg); err == nil {
		err = wire.Settle(framed)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return framed, nil
}

const oneStage = `select d.url from document d such that "http://a.example/x.html" G·L d where d.url contains "a"`

func TestSubmitEntersCHTAndDispatches(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "maya", "user")

	q, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	if len(clone.Dest) != 1 || clone.Dest[0].URL != "http://a.example/x.html" {
		t.Fatalf("clone = %+v", clone)
	}
	if clone.Rem != "G·L" || len(clone.Stages) != 1 || clone.Base != 0 {
		t.Errorf("clone = %+v", clone)
	}
	if clone.ID.User != "maya" || clone.ID.Site != "user/c" || clone.ID.Num != 1 {
		t.Errorf("id = %+v", clone.ID)
	}
	if q.LiveEntries() != 1 || q.Done() {
		t.Errorf("live = %d done = %v", q.LiveEntries(), q.Done())
	}

	// A processing report with no children completes the query.
	st := clone.State()
	err = f.reply(clone.ID, &wire.ResultMsg{
		ID: clone.ID,
		Updates: []wire.CHTUpdate{{
			Processed: wire.CHTEntry{Node: clone.Dest[0].URL, State: st, Origin: clone.Dest[0].Origin, Seq: clone.Dest[0].Seq},
		}},
		Tables: []wire.NodeTable{{Node: clone.Dest[0].URL, Stage: 0, Cols: []string{"d.url"}, Rows: [][]string{{"http://a.example/x.html"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := q.Results()
	if len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("results = %+v", res)
	}
	stats := q.Stats()
	if stats.EntriesAdded != 1 || stats.EntriesRetired != 1 || stats.ResultMsgs != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestChildrenKeepQueryAlive(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	q, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	st := clone.State()
	parent := wire.CHTEntry{Node: clone.Dest[0].URL, State: st, Origin: clone.Dest[0].Origin, Seq: clone.Dest[0].Seq}
	child := wire.CHTEntry{Node: "http://b.example/y.html", State: wire.State{NumQ: 1, Rem: "L"}, Origin: "a.example/query", Seq: 1}
	if err := f.reply(clone.ID, &wire.ResultMsg{
		ID:      clone.ID,
		Updates: []wire.CHTUpdate{{Processed: parent, Children: []wire.CHTEntry{child}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(50 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("Wait = %v, want timeout while child is live", err)
	}
	if q.LiveEntries() != 1 {
		t.Errorf("live = %d", q.LiveEntries())
	}
	// Retiring the child completes the query.
	if err := f.reply(clone.ID, &wire.ResultMsg{
		ID:      clone.ID,
		Updates: []wire.CHTUpdate{{Processed: child}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderReportsStillComplete(t *testing.T) {
	// The child's report arrives before the parent's update that
	// announced it: counts dip negative, then settle to zero.
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	q, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	st := clone.State()
	parent := wire.CHTEntry{Node: clone.Dest[0].URL, State: st, Origin: clone.Dest[0].Origin, Seq: clone.Dest[0].Seq}
	child := wire.CHTEntry{Node: "http://b.example/y.html", State: wire.State{NumQ: 1, Rem: "L"}, Origin: "a.example/query", Seq: 1}

	// Child report first.
	if err := f.reply(clone.ID, &wire.ResultMsg{ID: clone.ID,
		Updates: []wire.CHTUpdate{{Processed: child}}}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, q, func(s Stats) bool { return s.ResultMsgs == 1 })
	if q.Done() {
		t.Fatal("query completed with the parent update outstanding")
	}
	// Parent update second.
	if err := f.reply(clone.ID, &wire.ResultMsg{ID: clone.ID,
		Updates: []wire.CHTUpdate{{Processed: parent, Children: []wire.CHTEntry{child}}}}); err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if q.Stats().GhostReports != 1 {
		t.Errorf("ghost reports = %d", q.Stats().GhostReports)
	}
}

func waitStats(t *testing.T, q *Query, ok func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ok(q.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never reached")
}

// TestCancelClosesCollector: Cancel finishes the query at once and cuts
// its remote work off without closing the shared collector. A site that
// holds a session to it is told to stop (its reports cannot fail); a site
// that holds none has its report refused — the paper's failed dispatch.
func TestCancelClosesCollector(t *testing.T) {
	n := netsim.New(netsim.Options{})
	fa := newFakeServer(t, n, "a.example")
	fb := newFakeServer(t, n, "b.example")
	c := New(n, "u", "user")
	defer c.Close()
	q, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := fa.recv()
	// b.example has reported to this client: it holds a session.
	child := wire.CHTEntry{Node: "http://b.example/y.html", State: wire.State{NumQ: 1, Rem: "L"}, Origin: "a.example/query", Seq: 1}
	warm, err := fb.open(clone.ID, &wire.ResultMsg{ID: clone.ID, Updates: []wire.CHTUpdate{{Processed: child}}})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	waitStats(t, q, func(s Stats) bool { return s.ResultMsgs == 1 })

	q.Cancel()
	if err := q.Wait(time.Second); err != ErrCancelled {
		t.Fatalf("Wait = %v", err)
	}
	if c.query(q.ID().Num) != nil {
		t.Error("cancelled query still routed")
	}
	if stop := fb.recvStop(); stop.ID != q.ID() {
		t.Fatalf("stop for %v, want %v", stop.ID, q.ID())
	}
	if got := q.Stats().StopsSent; got != 1 {
		t.Errorf("StopsSent = %d, want 1 (the one site holding a session)", got)
	}
	// The passive termination signal: a.example never reported, so its
	// first report opens a session — which the collector refuses.
	if err := fa.reply(clone.ID, &wire.ResultMsg{ID: clone.ID}); err == nil {
		t.Fatal("first report of a cancelled query should fail at its sender")
	}
	select {
	case m := <-fa.stops:
		t.Errorf("site without a session was sent %+v", m)
	default:
	}
	// On b.example's session a late report cannot fail; it is dropped.
	if err := wire.Send(warm, &wire.ResultMsg{ID: clone.ID,
		Updates: []wire.CHTUpdate{{Processed: child}},
		Tables:  []wire.NodeTable{{Node: child.Node, Stage: 0, Cols: []string{"d.url"}, Rows: [][]string{{"late"}}}},
	}); err != nil {
		t.Fatalf("late report on an established session failed: %v", err)
	}
	// The session outlives the query: the client's next one reports on it.
	q2, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone2 := fa.recv()
	if err := wire.Send(warm, processedReply(clone2)); err != nil {
		t.Fatal(err)
	}
	if err := q2.Wait(5 * time.Second); err != nil {
		t.Fatalf("query after the cancel: %v", err)
	}
	if n := q.RowCount(); n != 0 {
		t.Errorf("cancelled query merged %d late rows", n)
	}
	// Cancel twice is fine.
	q.Cancel()
}

// TestCloseIsPassiveTermination: closing the client is the paper's
// passive termination — the endpoint and its connections go away, so a
// site's next report fails at its sender.
func TestCloseIsPassiveTermination(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	q, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	// A site holds a pooled connection to the collector from an earlier
	// report.
	pooled, err := n.Dial("a.example/query", clone.ID.Site)
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	framed := wire.NewFramed(pooled)
	if err := wire.Send(framed, &wire.ResultMsg{ID: clone.ID}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, q, func(s Stats) bool { return s.ResultMsgs == 1 })

	c.Close()
	if err := q.Wait(time.Second); err != ErrCancelled {
		t.Fatalf("Wait = %v", err)
	}
	select {
	case m := <-f.stops:
		t.Errorf("passive termination sent %+v", m)
	default:
	}
	if err := f.reply(clone.ID, &wire.ResultMsg{ID: clone.ID}); err == nil {
		t.Error("dial after Close should be refused")
	}
	// The pooled connection was closed under the sender. Its next write may
	// still be accepted by the local end; the one after cannot be.
	err = wire.Send(framed, &wire.ResultMsg{ID: clone.ID})
	for i := 0; err == nil && i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		err = wire.Send(framed, &wire.ResultMsg{ID: clone.ID})
	}
	if err == nil {
		t.Error("report on a pooled connection still succeeds after Close")
	}
	if _, err := c.Submit(disql.MustParse(oneStage)); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	c.Close() // idempotent
}

func TestSubmitFailsWhenNoServer(t *testing.T) {
	n := netsim.New(netsim.Options{})
	c := New(n, "u", "user")
	if _, err := c.Submit(disql.MustParse(oneStage)); err == nil {
		t.Fatal("Submit should fail when the only start site is down")
	}
	// The failed query left the routing table; the endpoint stays bound for
	// the next submit and is released by Close.
	if len(c.queries) != 0 {
		t.Errorf("%d queries still routed", len(c.queries))
	}
	if _, err := n.Listen("user/c"); err == nil {
		t.Fatal("collector endpoint was released by a failed submit")
	}
	c.Close()
	if _, err := n.Listen("user/c"); err != nil {
		t.Fatalf("endpoint not released by Close: %v", err)
	}
}

func TestSubmitInvalidQuery(t *testing.T) {
	n := netsim.New(netsim.Options{})
	c := New(n, "u", "user")
	if _, err := c.Submit(&disql.WebQuery{}); err == nil {
		t.Fatal("invalid web-query should be rejected")
	}
}

func TestPartialStartSiteFailure(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	// b.example has no server.
	c := New(n, "u", "user")
	q, err := c.Submit(disql.MustParse(
		`select d.url from document d such that ("http://a.example/x.html", "http://b.example/y.html") G d where d.url contains "a"`))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	// Only the reachable site's entry is live.
	if q.LiveEntries() != 1 {
		t.Errorf("live = %d", q.LiveEntries())
	}
	st := clone.State()
	if err := f.reply(clone.ID, &wire.ResultMsg{ID: clone.ID,
		Updates: []wire.CHTUpdate{{Processed: wire.CHTEntry{
			Node: clone.Dest[0].URL, State: st, Origin: clone.Dest[0].Origin, Seq: clone.Dest[0].Seq,
		}}}}); err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The unreachable start site's root was written off: declared.
	if !q.Partial() || !slices.Equal(q.Unreachable(), []string{"b.example"}) || !errors.Is(q.Err(), ErrPartial) {
		t.Errorf("partial = %v unreachable = %v err = %v, want b.example declared", q.Partial(), q.Unreachable(), q.Err())
	}
}

func TestResultRowDedupAcrossMessages(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	q, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	st := clone.State()
	tbl := wire.NodeTable{Node: "n", Stage: 0, Cols: []string{"d.url"},
		Rows: [][]string{{"http://same.example/"}, {"http://same.example/"}}}
	child := wire.CHTEntry{Node: "m", State: st, Origin: "x", Seq: 1}
	f.reply(clone.ID, &wire.ResultMsg{ID: clone.ID,
		Updates: []wire.CHTUpdate{{Processed: wire.CHTEntry{Node: clone.Dest[0].URL, State: st, Origin: clone.Dest[0].Origin, Seq: clone.Dest[0].Seq}, Children: []wire.CHTEntry{child}}},
		Tables:  []wire.NodeTable{tbl}})
	f.reply(clone.ID, &wire.ResultMsg{ID: clone.ID,
		Updates: []wire.CHTUpdate{{Processed: child}},
		Tables:  []wire.NodeTable{tbl}})
	if err := q.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := q.Results()
	if len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("results = %+v", res)
	}
}

// TestWaitContextAfterFinish: once a query has finished, WaitContext
// returns its outcome, the one Err reports, even when ctx has ended too
// and the wait could take either branch — cancelled or past its deadline.
func TestWaitContextAfterFinish(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	defer c.Close()
	q, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	d := clone.Dest[0]
	f.reply(clone.ID, &wire.ResultMsg{ID: clone.ID, Updates: []wire.CHTUpdate{{
		Processed: wire.CHTEntry{Node: d.URL, State: clone.State(), Origin: d.Origin, Seq: d.Seq}}}})
	if err := q.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	for i := 0; i < 200; i++ {
		for _, ctx := range []context.Context{cancelled, expired} {
			if got, want := q.WaitContext(ctx), q.Err(); got != want {
				t.Fatalf("iteration %d: WaitContext = %v, Err = %v", i, got, want)
			}
		}
	}
}

var sinkRowKey string

// TestRowKey pins the row dedup key: each cell NUL-terminated, so rows
// whose cells run together alike stay apart, built in one allocation.
func TestRowKey(t *testing.T) {
	if k := rowKey([]string{"a", "", "bc"}); k != "a\x00\x00bc\x00" {
		t.Errorf("rowKey = %q", k)
	}
	if rowKey([]string{"ab", "c"}) == rowKey([]string{"a", "bc"}) {
		t.Error("rows whose cells run together alike share a key")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	row := []string{"http://t3.example/p17.html", "Page 17", "4096"}
	if n := testing.AllocsPerRun(100, func() { sinkRowKey = rowKey(row) }); n != 1 {
		t.Errorf("rowKey: %.0f allocations, want 1", n)
	}
}

func TestQueryIDsAreUnique(t *testing.T) {
	n := netsim.New(netsim.Options{})
	newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	q1, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	// Uniqueness is by Num: the Site is the client's one collector.
	if q1.ID().Num == q2.ID().Num {
		t.Error("query numbers must differ")
	}
	if q1.ID().Site != "user/c" || q2.ID().Site != q1.ID().Site {
		t.Errorf("sites = %s, %s", q1.ID().Site, q2.ID().Site)
	}
	q1.Cancel()
	q2.Cancel()
}

// Guard: the collector must ignore messages for other query IDs.
func TestCollectorIgnoresForeignIDs(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c := New(n, "u", "user")
	q, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	clone := f.recv()
	foreign := clone.ID
	foreign.Num += 99
	f.reply(clone.ID, &wire.ResultMsg{ID: foreign,
		Updates: []wire.CHTUpdate{{Processed: wire.CHTEntry{Node: clone.Dest[0].URL, State: clone.State(), Origin: clone.Dest[0].Origin, Seq: clone.Dest[0].Seq}}}})
	if err := q.Wait(50 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("foreign message should not complete the query: %v", err)
	}
	q.Cancel()
}
