package core

import (
	"testing"
	"time"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
)

// TestCampusJourneyReconstruction runs the Section-5 campus query with
// tracing on and checks the reconstructed journey: every clone exactly
// once, hops consistent with parentage, all fates processed, and the
// regenerated traversal listing the paper's Figure-7 visits.
func TestCampusJourneyReconstruction(t *testing.T) {
	d, err := NewDeployment(Config{
		Web:  webgraph.Campus(),
		Exec: ExecConfig{NoDocService: true, Trace: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !d.Tracing() {
		t.Fatal("Tracing() = false with Config.Exec.Trace set")
	}
	q, err := d.Run(webgraph.CampusDISQL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	jy := d.Journey(q)
	if !jy.Complete() {
		t.Errorf("clean campus run not complete: %d lost spans", len(jy.Lost()))
	}
	if len(jy.Roots) != 1 {
		t.Fatalf("roots = %d, want 1 (single StartNode site)", len(jy.Roots))
	}
	if len(jy.Spans) < 6 {
		t.Errorf("spans = %d, suspiciously few for the campus query", len(jy.Spans))
	}
	jy.Walk(func(n *trace.SpanNode, _ int) {
		if n.Fate != trace.FateProcessed {
			t.Errorf("span %s: fate %q, want processed", n.Span, n.Fate)
		}
		if n.Site == "" {
			t.Errorf("span %s: no processing site", n.Span)
		}
		for _, c := range n.Children {
			if c.Hop != n.Hop+1 {
				t.Errorf("span %s hop=%d but parent %s hop=%d", c.Span, c.Hop, n.Span, n.Hop)
			}
			if c.FromSite != n.Site {
				t.Errorf("span %s from %q but parent processed at %q", c.Span, c.FromSite, n.Site)
			}
		}
	})
	// Each clone message is created exactly once: one Dispatch or Forward
	// event per span.
	created := make(map[string]int)
	for _, e := range jy.Events {
		if e.Kind == trace.Dispatch || e.Kind == trace.Forward {
			created[e.Span.String()]++
		}
	}
	if len(created) != len(jy.Spans) {
		t.Errorf("creation events for %d spans, journey has %d", len(created), len(jy.Spans))
	}
	for s, n := range created {
		if n != 1 {
			t.Errorf("span %s created %d times", s, n)
		}
	}

	// Figure 7: the start page and the labs page's stage advance route,
	// q1 is answered once and q2 by the three conveners, and the other
	// ten visits dead-end.
	visits := make(map[string]int)
	for _, l := range jy.Traversal() {
		visits[l.Action]++
	}
	if visits["route"] != 2 || visits["eval"] != 4 || visits["dead-end"] != 10 || len(visits) != 3 {
		t.Errorf("traversal visits = %v, want 2 routes, 4 evals, 10 dead-ends", visits)
	}
}

// compareJourneys asserts that two views of the same run reconstruct the
// same clone tree: same spans, same parentage, sites, hops and fates.
func compareJourneys(t *testing.T, full, stitched *trace.Journey) {
	t.Helper()
	if len(stitched.Spans) != len(full.Spans) {
		t.Errorf("stitched view has %d spans, full journals %d", len(stitched.Spans), len(full.Spans))
	}
	for id, fn := range full.Spans {
		sn := stitched.Spans[id]
		if sn == nil {
			t.Errorf("span %s missing from the stitched view", id)
			continue
		}
		if sn.Parent != fn.Parent {
			t.Errorf("span %s: stitched parent %s, full %s", id, sn.Parent, fn.Parent)
		}
		if sn.Site != fn.Site {
			t.Errorf("span %s: stitched site %q, full %q", id, sn.Site, fn.Site)
		}
		if sn.Hop != fn.Hop {
			t.Errorf("span %s: stitched hop %d, full %d", id, sn.Hop, fn.Hop)
		}
		if sn.Fate != fn.Fate {
			t.Errorf("span %s: stitched fate %q, full %q", id, sn.Fate, fn.Fate)
		}
	}
}

// TestStitchedJourneyParityPipe checks that the user-site's
// report-stitched view — Dispatch events plus the span ids and spawn
// links echoed on result messages — reconstructs the same journey as the
// full site journals, over the in-process pipe transport.
func TestStitchedJourneyParityPipe(t *testing.T) {
	d, err := NewDeployment(Config{
		Web: webgraph.Campus(),
		Exec: ExecConfig{
			NoDocService: true,
			Trace:        true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.Run(webgraph.CampusDISQL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	full := d.Journey(q)
	stitched := trace.BuildJourney(q.ID().String(), q.TraceEvents())
	if !full.Complete() || !stitched.Complete() {
		t.Errorf("complete: full=%v stitched=%v", full.Complete(), stitched.Complete())
	}
	compareJourneys(t, full, stitched)
}

// TestStitchedJourneyParityTCP runs the same parity check over real TCP
// sockets: the daemons journal locally, the client sees only its own
// journal plus what the result messages echo, and both views must agree.
// This is the wiring `webdis -trace` relies on across processes.
func TestStitchedJourneyParityTCP(t *testing.T) {
	web := webgraph.Campus()
	tr := netsim.NewTCP()
	met := &server.Metrics{}
	journals := []*trace.Journal{trace.NewJournal("tcp://127.0.0.1:7412", 0)}
	for _, site := range web.Hosts() {
		h := webserver.NewHost(site, web)
		if err := h.Start(tr); err != nil {
			t.Fatal(err)
		}
		defer h.Stop()
		j := trace.NewJournal(site, 0)
		journals = append(journals, j)
		s := server.New(site, h, tr, met, server.Options{Journal: j})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
	}
	c := client.NewWith(tr, "tcp-trace-test", "tcp://127.0.0.1:7412", client.Options{Journal: journals[0]})
	defer c.Close()
	q, err := c.Submit(disql.MustParse(webgraph.CampusDISQL))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res := q.Results(); len(res) != 2 || len(res[1].Rows) != 3 {
		t.Fatalf("results = %+v", res)
	}
	var all []trace.Event
	for _, j := range journals {
		all = append(all, j.Events()...)
	}
	full := trace.BuildJourney(q.ID().String(), all)
	stitched := trace.BuildJourney(q.ID().String(), q.TraceEvents())
	if !full.Complete() || !stitched.Complete() {
		t.Errorf("complete: full=%v stitched=%v", full.Complete(), stitched.Complete())
	}
	if len(full.Spans) == 0 {
		t.Fatal("no spans journaled over TCP")
	}
	compareJourneys(t, full, stitched)
}

// TestSiteMetricsSplit checks the per-site metrics split: site snapshots
// attribute work to individual sites and sum exactly to the aggregate
// Metrics() view.
func TestSiteMetricsSplit(t *testing.T) {
	d, err := NewDeployment(Config{
		Web: webgraph.Campus(),
		Exec: ExecConfig{
			NoDocService: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(webgraph.CampusDISQL, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	snaps := d.SiteSnapshots()
	if _, ok := snaps["user"]; !ok {
		t.Error("no client snapshot under the user name")
	}
	var busy int
	var sum server.Snapshot
	for site, s := range snaps {
		if site != "user" && s.Evaluations+s.PureRoutes+s.DupDropped > 0 {
			busy++
		}
		sum = sum.Add(s)
	}
	if busy < 2 {
		t.Errorf("only %d sites show work; the split is not per-site", busy)
	}
	if agg := d.Metrics().Snapshot(); sum != agg {
		t.Errorf("site snapshots sum to %+v\naggregate is %+v", sum, agg)
	}
	if sum.Evaluations == 0 || sum.ResultMsgs == 0 {
		t.Errorf("campus run recorded no work: %+v", sum)
	}
}
