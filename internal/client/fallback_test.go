package client

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

// hostAll starts a document host for every site of web (no query servers
// at all — the fully non-participating world).
func hostAll(t *testing.T, n *netsim.Network, web *webgraph.Web) {
	t.Helper()
	for _, site := range web.Hosts() {
		h := webserver.NewHost(site, web)
		if err := h.Start(n); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Stop)
	}
}

// proxyClient starts the user-site's proxy — an ordinary query server with
// no documents of its own — and a client that hands it every clone no
// site's server takes. It returns the client and the proxy's counters.
func proxyClient(t *testing.T, n *netsim.Network) (*Client, *server.Metrics) {
	t.Helper()
	met := &server.Metrics{}
	p := server.New("user", nil, n, met, server.Options{})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	c := NewWith(n, "u", "user", Options{Proxy: p})
	t.Cleanup(c.Close)
	return c, met
}

func TestFallbackProcessesWholeQueryLocally(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	hostAll(t, n, web)

	c, met := proxyClient(t, n)
	q, err := c.Submit(disql.MustParse(webgraph.CampusDISQL))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := q.Results()
	if len(res) != 2 || len(res[1].Rows) != len(webgraph.CampusConveners) {
		t.Fatalf("results = %+v", res)
	}
	for _, row := range res[1].Rows {
		if !strings.Contains(row[1], webgraph.CampusConveners[row[0]]) {
			t.Errorf("row = %v", row)
		}
	}
	m := met.Snapshot()
	if m.DocsParsed == 0 || m.Evaluations == 0 || m.LocalClones == 0 {
		t.Errorf("proxy metrics = %+v", m)
	}
	if m.ClonesForwarded != 0 {
		t.Errorf("nothing to rejoin with no servers: %+v", m)
	}
	// CHT balanced although every report came from the user-site itself.
	st := q.Stats()
	if st.EntriesAdded != st.EntriesRetired {
		t.Errorf("CHT imbalance: %+v", st)
	}
}

func TestFallbackDocumentCacheBounded(t *testing.T) {
	// A diamond reaches the join twice in the same state; the proxy's log
	// table drops the second arrival, so each document is fetched once.
	web := webgraph.NewWeb()
	top := web.NewPage("http://a.example/top.html", "Top")
	top.AddLink("http://b.example/l.html", "l")
	top.AddLink("http://c.example/r.html", "r")
	web.NewPage("http://b.example/l.html", "L").AddLink("http://d.example/join.html", "j")
	web.NewPage("http://c.example/r.html", "R").AddLink("http://d.example/join.html", "j")
	web.NewPage("http://d.example/join.html", "Join").AddText("the join")

	n := netsim.New(netsim.Options{})
	hostAll(t, n, web)
	c, met := proxyClient(t, n)
	q, err := c.Submit(disql.MustParse(
		`select d.url from document d such that "http://a.example/top.html" N|G*3 d`))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rows := q.Results()[0].Rows; len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	if got := met.DocsParsed.Load(); got != 4 {
		t.Errorf("fetches = %d, want one per document", got)
	}
}

func TestFallbackMissingDocumentIsDeadEnd(t *testing.T) {
	web := webgraph.NewWeb()
	p := web.NewPage("http://a.example/x.html", "X")
	p.AddLink("/gone.html", "floating")
	n := netsim.New(netsim.Options{})
	hostAll(t, n, web)
	c, met := proxyClient(t, n)
	q, err := c.Submit(disql.MustParse(
		`select d.url from document d such that "http://a.example/x.html" N|L d`))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rows := q.Results()[0].Rows; len(rows) != 1 {
		t.Errorf("rows = %v", rows)
	}
	if got := met.DocErrors.Load(); got != 1 {
		t.Errorf("load failures = %d, want the floating link's 1", got)
	}
}

// TestDaemonsBounceToProxy runs the campus query against servers built
// the way webdisd builds them (zero options) on every site but the DSL
// lab's, whose documents stay on its document host. The forward to the
// DSL site bounces to the user-site, whose proxy evaluates it: all three
// conveners, nothing declared lost.
func TestDaemonsBounceToProxy(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	for _, site := range web.Hosts() {
		h := webserver.NewHost(site, web)
		if err := h.Start(n); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Stop)
		if site == "dsl.serc.iisc.ernet.in" {
			continue
		}
		s := server.New(site, h, n, &server.Metrics{}, server.Options{})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
	}
	c, met := proxyClient(t, n)
	q, err := c.Submit(disql.MustParse(webgraph.CampusDISQL))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := q.Results()
	if len(res) != 2 || len(res[1].Rows) != len(webgraph.CampusConveners) {
		t.Fatalf("results = %+v", res)
	}
	if met.Evaluations.Load() == 0 {
		t.Error("the proxy evaluated nothing")
	}
	if q.Partial() || q.Err() != nil {
		t.Errorf("partial = %v err = %v, want a whole answer", q.Partial(), q.Err())
	}
}

// TestBounceWithoutProxyIsWrittenOff: a bounce that reaches the user-site
// after its proxy stopped is written off, and the query completes
// declared partial.
func TestBounceWithoutProxyIsWrittenOff(t *testing.T) {
	n := netsim.New(netsim.Options{})
	f := newFakeServer(t, n, "a.example")
	c, met := proxyClient(t, n)
	q, err := c.Submit(disql.MustParse(oneStage))
	if err != nil {
		t.Fatal(err)
	}
	root := f.recv()
	child := &wire.CloneMsg{ID: root.ID, Rem: "L", Stages: root.Stages,
		Dest: []wire.DestNode{{URL: "http://b.example/y.html", Origin: "a.example/query", Seq: 1}}}
	if err := f.reply(root.ID, &wire.ResultMsg{ID: root.ID, Updates: []wire.CHTUpdate{{
		Processed: root.Retirements()[0].Processed, Children: []wire.CHTEntry{child.Retirements()[0].Processed},
	}}}); err != nil {
		t.Fatal(err)
	}
	c.opts.Proxy.Stop()
	// A bounce with no destinations owes nothing and must not crash the
	// collector.
	for _, b := range []*wire.BounceMsg{
		{Clone: &wire.CloneMsg{ID: root.ID, Rem: "L", Stages: root.Stages}, Reason: wire.BounceNoServer},
		{Clone: child, Reason: wire.BounceRetryExhausted},
	} {
		if err := f.reply(root.ID, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !q.Partial() || q.Stats().Reaped != 1 || !slices.Equal(q.Unreachable(), []string{"b.example"}) || !errors.Is(q.Err(), ErrPartial) {
		t.Errorf("partial = %v reaped = %d unreachable = %v err = %v, want b.example written off",
			q.Partial(), q.Stats().Reaped, q.Unreachable(), q.Err())
	}
	if met.Evaluations.Load() != 0 {
		t.Errorf("the stopped proxy evaluated %d clones", met.Evaluations.Load())
	}
}

func TestNonHybridClientFailsWithoutServers(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	hostAll(t, n, web)
	c := New(n, "u", "user") // no proxy
	if _, err := c.Submit(disql.MustParse(webgraph.CampusDISQL)); err == nil {
		t.Fatal("submit should fail: no query server and no proxy")
	}
}

func TestFallbackCancelledQueryStops(t *testing.T) {
	web := webgraph.Chain(100, 1, 2)
	n := netsim.New(netsim.Options{Latency: time.Millisecond})
	hostAll(t, n, web)
	c, met := proxyClient(t, n)
	q, err := c.Submit(disql.MustParse(
		`select d.url from document d such that "http://c0.example/p0.html" N|G* d`))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	q.Cancel()
	if err := q.Wait(time.Second); err != ErrCancelled {
		t.Fatalf("Wait = %v", err)
	}
	// The cancel's stop reached the proxy: apart from the clone in flight
	// when it landed, fetch counts stop growing.
	time.Sleep(20 * time.Millisecond) // let the in-flight clone finish
	a := met.DocsParsed.Load()
	time.Sleep(50 * time.Millisecond)
	b := met.DocsParsed.Load()
	if a != b {
		t.Errorf("the proxy kept working after cancel: %d -> %d", a, b)
	}
	if b >= 100 {
		t.Errorf("cancel had no effect: %d fetches", b)
	}
	if met.Stopped.Load() == 0 {
		t.Error("the proxy never retired a clone as stopped")
	}
}
