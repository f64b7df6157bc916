package client

import (
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
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

// TestFallbackCancelledQueryStops holds the proxy's clone of a chain in
// the middle of its download until the cancel's stop has reached the
// proxy: the clone must then retire as stopped, and the chain go no
// further.
func TestFallbackCancelledQueryStops(t *testing.T) {
	web := webgraph.Chain(100, 1, 2)
	n := netsim.New(netsim.Options{Latency: time.Millisecond})
	const held = "c3.example"
	for _, site := range web.Hosts() {
		if site == held {
			continue
		}
		h := webserver.NewHost(site, web)
		if err := h.Start(n); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Stop)
	}
	// The held site's document host answers only once released.
	fetching, release := make(chan struct{}, 1), make(chan struct{})
	ln, err := n.Listen(webserver.Endpoint(held))
	if err != nil {
		t.Fatal(err)
	}
	sv := netsim.Serve(ln, func(conn net.Conn) {
		framed := wire.NewFramed(conn)
		msg, err := wire.Receive(framed)
		req, ok := msg.(*wire.FetchReq)
		if err != nil || !ok {
			return
		}
		select {
		case fetching <- struct{}{}:
		default: // only the first fetch is announced
		}
		<-release
		content, _ := web.HTML(req.URL)
		wire.Send(framed, &wire.FetchResp{URL: req.URL, Content: content}) //nolint:errcheck // the proxy's download fails if this does
	})
	t.Cleanup(func() { sv.Close(); sv.Wait() })

	c, met := proxyClient(t, n)
	// Released before the proxy stops, which waits for the held clone.
	open := sync.OnceFunc(func() { close(release) })
	t.Cleanup(open)
	q, err := c.Submit(disql.MustParse(
		`select d.url from document d such that "http://c0.example/p0.html" N|G* d`))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fetching:
	case <-time.After(10 * time.Second):
		t.Fatal("the proxy never reached the held page")
	}
	q.Cancel()
	if err := q.Wait(time.Second); err != ErrCancelled {
		t.Fatalf("Wait = %v", err)
	}
	within := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
		}
	}
	within("the cancel's stop never reached the proxy", func() bool { return c.opts.Proxy.Stopped(q.ID()) })
	open()
	within("the proxy never retired a clone as stopped", func() bool { return met.Stopped.Load() > 0 })
	// The stopped clone spawned nothing: the documents parsed are the
	// chain up to the held page, and stay so.
	a := met.DocsParsed.Load()
	time.Sleep(50 * time.Millisecond)
	if b := met.DocsParsed.Load(); a != 4 || b != a {
		t.Errorf("the proxy parsed %d documents, then %d; want the 4 up to the held page", a, b)
	}
}
