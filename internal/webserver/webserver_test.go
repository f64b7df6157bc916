package webserver

import (
	"strings"
	"testing"
	"time"

	"webdis/internal/netsim"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

func TestLocalGet(t *testing.T) {
	web := webgraph.Campus()
	h := NewHost("csa.iisc.ernet.in", web)
	if h.Site() != "csa.iisc.ernet.in" {
		t.Errorf("Site = %q", h.Site())
	}
	content, err := h.Get(webgraph.CampusStart)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(content), "Laboratories") {
		t.Errorf("content = %.80s", content)
	}
	if _, err := h.Get("http://dsl.serc.iisc.ernet.in/index.html"); err == nil {
		t.Error("Get of another site's document should fail")
	}
	if _, err := h.Get("http://csa.iisc.ernet.in/nosuch.html"); err == nil {
		t.Error("Get of a missing document should fail")
	}
	if got := len(h.URLs()); got != 5 {
		t.Errorf("URLs = %d, want 5", got)
	}
}

func TestFetchOverTransport(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	h := NewHost("csa.iisc.ernet.in", web)
	if err := h.Start(n); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	f := NewFetcher(n, "user/results")
	content, err := f.Get(webgraph.CampusLabs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := web.HTML(webgraph.CampusLabs)
	if string(content) != string(want) {
		t.Error("fetched content differs from origin")
	}
	// Traffic was attributed to the user -> site/web edge and includes the
	// document bytes.
	sn := n.Stats().Snapshot()
	down := sn.Edges[netsim.Edge{From: Endpoint("csa.iisc.ernet.in"), To: "user/results"}]
	if down == nil || down.Bytes < int64(len(want)) {
		t.Errorf("download bytes = %+v, want >= %d", down, len(want))
	}
	if down.ByKind[wire.KindFetchResp] != 1 {
		t.Errorf("kinds = %+v", down.ByKind)
	}

	// Unknown document returns a fetch error, not a transport error.
	if _, err := f.Get("http://csa.iisc.ernet.in/nosuch.html"); err == nil || !strings.Contains(err.Error(), "no document") {
		t.Errorf("err = %v", err)
	}
	// Unknown site: connection refused.
	if _, err := f.Get("http://unknown.example/x.html"); err == nil {
		t.Error("fetch from unknown site should fail")
	}
}

// TestFetchCostsDocumentPlusConstant: the data-shipping baseline's cost
// is the documents it moves. One fetch is two frames, and everything
// beyond the document bytes — handshake, headers, URLs — fits a small
// constant, whatever the codec needs to set up a session.
func TestFetchCostsDocumentPlusConstant(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	h := NewHost("csa.iisc.ernet.in", web)
	if err := h.Start(n); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	content, err := NewFetcher(n, "user/results").Get(webgraph.CampusLabs)
	if err != nil {
		t.Fatal(err)
	}
	total := n.Stats().Snapshot().Total()
	if limit := int64(len(content)) + 256; total.Bytes > limit {
		t.Errorf("fetch of a %d B document moved %d B, want at most %d", len(content), total.Bytes, limit)
	}
	if total.Messages != 2 {
		t.Errorf("fetch took %d messages, want 2", total.Messages)
	}
}

// TestFetchBookedBeforeSeen: the moment a fetch returns, the fabric's
// books already hold its response frame. The sender used to book a frame
// after writing it, so a reader quick enough saw the frame first and the
// books one short (TestFetchOverTransport's "kinds = map[]"); 200 fetches
// in a row gave that window a few hundred chances.
func TestFetchBookedBeforeSeen(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	h := NewHost("csa.iisc.ernet.in", web)
	if err := h.Start(n); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	f := NewFetcher(n, "user/results")
	edge := netsim.Edge{From: Endpoint("csa.iisc.ernet.in"), To: "user/results"}
	for i := int64(1); i <= 200; i++ {
		if _, err := f.Get(webgraph.CampusLabs); err != nil {
			t.Fatal(err)
		}
		down := n.Stats().Snapshot().Edges[edge]
		if down == nil || down.ByKind[wire.KindFetchResp] != i {
			t.Fatalf("after fetch %d the books show %+v", i, down)
		}
	}
}

func TestHostStopUnblocksFetchers(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	h := NewHost("csa.iisc.ernet.in", web)
	if err := h.Start(n); err != nil {
		t.Fatal(err)
	}
	h.Stop()
	f := NewFetcher(n, "user/results")
	if _, err := f.Get(webgraph.CampusStart); err == nil {
		t.Error("fetch after Stop should fail")
	}
	// Stop twice is fine.
	h.Stop()
}

// TestHostStopWithIdleConnection: a fetcher holding the document endpoint
// open without sending anything must not wedge Stop. The host closes
// every accepted connection, so the idle handler's read ends.
func TestHostStopWithIdleConnection(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	h := NewHost("csa.iisc.ernet.in", web)
	if err := h.Start(n); err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("user/results", Endpoint("csa.iisc.ernet.in"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One request and its answer first, so the host has certainly accepted
	// the connection; then the fetcher falls silent and keeps it open.
	idle := wire.NewFramed(c)
	if err := wire.Send(idle, &wire.FetchReq{URL: webgraph.CampusStart}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Receive(idle); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() { h.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop still blocked on an idle accepted connection after 2s")
	}
	if _, err := wire.Receive(idle); err == nil {
		t.Error("the idle connection stayed open after Stop")
	}
}
