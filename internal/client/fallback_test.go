package client

import (
	"strings"
	"testing"
	"time"

	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
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

func TestFallbackProcessesWholeQueryLocally(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	hostAll(t, n, web)

	c := NewWith(n, "u", "user", Options{Hybrid: true})
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
	fs := q.FallbackStats()
	if fs.Fetches == 0 || fs.Evaluations == 0 || fs.LocalClones == 0 {
		t.Errorf("fallback stats = %+v", fs)
	}
	if fs.Rejoined != 0 {
		t.Errorf("nothing to rejoin with no servers: %+v", fs)
	}
	// CHT balanced even though everything was self-reported.
	st := q.Stats()
	if st.EntriesAdded != st.EntriesRetired {
		t.Errorf("CHT imbalance: %+v", st)
	}
}

func TestFallbackDocumentCacheBounded(t *testing.T) {
	// A diamond revisits the same node; the fallback must fetch each
	// document once.
	web := webgraph.NewWeb()
	top := web.NewPage("http://a.example/top.html", "Top")
	top.AddLink("http://b.example/l.html", "l")
	top.AddLink("http://c.example/r.html", "r")
	web.NewPage("http://b.example/l.html", "L").AddLink("http://d.example/join.html", "j")
	web.NewPage("http://c.example/r.html", "R").AddLink("http://d.example/join.html", "j")
	web.NewPage("http://d.example/join.html", "Join").AddText("the join")

	n := netsim.New(netsim.Options{})
	hostAll(t, n, web)
	c := NewWith(n, "u", "user", Options{Hybrid: true})
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
	if fs := q.FallbackStats(); fs.Fetches != 4 {
		t.Errorf("fetches = %d, want one per document", fs.Fetches)
	}
}

func TestFallbackMissingDocumentIsDeadEnd(t *testing.T) {
	web := webgraph.NewWeb()
	p := web.NewPage("http://a.example/x.html", "X")
	p.AddLink("/gone.html", "floating")
	n := netsim.New(netsim.Options{})
	hostAll(t, n, web)
	c := NewWith(n, "u", "user", Options{Hybrid: true})
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
}

func TestNonHybridClientFailsWithoutServers(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	hostAll(t, n, web)
	c := New(n, "u", "user") // hybrid off
	if _, err := c.Submit(disql.MustParse(webgraph.CampusDISQL)); err == nil {
		t.Fatal("submit should fail: no query server and no hybrid fallback")
	}
}

func TestFallbackCancelledQueryStops(t *testing.T) {
	web := webgraph.Chain(100, 1, 2)
	n := netsim.New(netsim.Options{Latency: time.Millisecond})
	hostAll(t, n, web)
	c := NewWith(n, "u", "user", Options{Hybrid: true})
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
	// The fallback queue was closed: apart from the destination in flight
	// at the instant of cancellation, fetch counts stop growing.
	time.Sleep(20 * time.Millisecond) // let any in-flight destination finish
	a := q.FallbackStats().Fetches
	time.Sleep(50 * time.Millisecond)
	b := q.FallbackStats().Fetches
	if a != b {
		t.Errorf("fallback kept working after cancel: %d -> %d", a, b)
	}
	if b >= 100 {
		t.Errorf("cancel had no effect: %d fetches", b)
	}
}
