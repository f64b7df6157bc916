package server

import (
	"sync"
	"testing"
	"time"

	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

// harness wires one server to a hand-rolled user-site sink so tests can
// inspect raw ResultMsgs.
type harness struct {
	net    *netsim.Network
	server *Server
	met    *Metrics

	mu   sync.Mutex
	msgs []*wire.ResultMsg
}

const sinkName = "user/q1"

func newHarness(t *testing.T, web *webgraph.Web, site string, opts Options) *harness {
	t.Helper()
	h := &harness{net: netsim.New(netsim.Options{}), met: &Metrics{}}
	host := webserver.NewHost(site, web)
	h.server = New(site, host, h.net, h.met, opts)
	if err := h.server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.server.Stop)

	ln, err := h.net.Listen(sinkName)
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
					if rm, ok := msg.(*wire.ResultMsg); ok {
						h.mu.Lock()
						h.msgs = append(h.msgs, rm)
						h.mu.Unlock()
					}
				}
			}()
		}
	}()
	return h
}

func (h *harness) send(t *testing.T, c *wire.CloneMsg) {
	t.Helper()
	conn, err := h.net.Dial(sinkName, Endpoint(h.server.Site()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Send(conn, c); err != nil {
		t.Fatal(err)
	}
}

// waitMsgs waits until at least n result messages have arrived.
func (h *harness) waitMsgs(t *testing.T, n int) []*wire.ResultMsg {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		if len(h.msgs) >= n {
			out := make([]*wire.ResultMsg, len(h.msgs))
			copy(out, h.msgs)
			h.mu.Unlock()
			return out
		}
		h.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d result messages", n)
	return nil
}

var testID = wire.QueryID{User: "t", Site: sinkName, Num: 1}

func mustQuery(src string) *disql.WebQuery { return disql.MustParse(src) }

func campusStage2Clone(destURL string) *wire.CloneMsg {
	// State (1, L*1) arriving at a lab homepage: evaluate q2 with the
	// convener predicate.
	wq := mustQuery(webgraph.CampusDISQL)
	return &wire.CloneMsg{
		ID:     testID,
		Dest:   []wire.DestNode{{URL: destURL, Origin: sinkName, Seq: 1}},
		Rem:    "L*1",
		Base:   1,
		Stages: nodeproc.EncodeStages(wq.Stages[1:]),
	}
}

func TestServerEvaluatesAndReports(t *testing.T) {
	web := webgraph.Campus()
	h := newHarness(t, web, "dsl.serc.iisc.ernet.in", Options{})
	h.send(t, campusStage2Clone("http://dsl.serc.iisc.ernet.in/index.html"))

	// The homepage fails q2 (dead end for evaluation) but forwards the
	// L-continuation locally; the people page answers. Two result
	// messages arrive: one per processed clone batch.
	msgs := h.waitMsgs(t, 2)
	var rows int
	var processed, children int
	for _, m := range msgs {
		for _, tbl := range m.Tables {
			rows += len(tbl.Rows)
			if tbl.Stage != 1 {
				t.Errorf("stage = %d", tbl.Stage)
			}
		}
		for _, u := range m.Updates {
			processed++
			children += len(u.Children)
		}
	}
	if rows != 1 {
		t.Errorf("result rows = %d", rows)
	}
	// Three nodes processed: homepage plus people and projects (batched
	// into one local clone; projects dead-ends).
	if processed != 3 {
		t.Errorf("processed = %d", processed)
	}
	if children != 2 {
		t.Errorf("children = %d", children)
	}
	m := h.met.Snapshot()
	if m.LocalClones != 1 || m.ClonesForwarded != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if m.Evaluations != 3 || m.DeadEnds != 2 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestServerEchoesSerials(t *testing.T) {
	web := webgraph.Campus()
	h := newHarness(t, web, "www2.csa.iisc.ernet.in", Options{})
	clone := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
	clone.Dest[0].Origin = "someorigin/query"
	clone.Dest[0].Seq = 42
	h.send(t, clone)
	msgs := h.waitMsgs(t, 1)
	p := msgs[0].Updates[0].Processed
	if p.Origin != "someorigin/query" || p.Seq != 42 {
		t.Errorf("processed entry = %+v", p)
	}
	if p.State.NumQ != 1 || p.State.Rem != "L*1" {
		t.Errorf("state = %+v", p.State)
	}
}

func TestServerDuplicateDropStillReports(t *testing.T) {
	web := webgraph.Campus()
	h := newHarness(t, web, "www2.csa.iisc.ernet.in", Options{})
	h.send(t, campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html"))
	second := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
	second.Dest[0].Seq = 2
	h.send(t, second)
	msgs := h.waitMsgs(t, 2)
	// Whichever clone arrives second is the duplicate: its report retires
	// its entry but carries no results. The clones race through separate
	// connections, so identify the reports by content, not order.
	var full, empty int
	for _, m := range msgs {
		if len(m.Updates) != 1 {
			t.Fatalf("report updates = %+v", m.Updates)
		}
		if len(m.Tables) == 0 && len(m.Updates[0].Children) == 0 {
			empty++
		} else {
			full++
		}
	}
	if full != 1 || empty != 1 {
		t.Errorf("reports = %+v, want one full and one duplicate-retire", msgs)
	}
	if h.met.DupDropped.Load() != 1 {
		t.Errorf("DupDropped = %d", h.met.DupDropped.Load())
	}
}

func TestServerSubsumptionRewrite(t *testing.T) {
	// Send L*2 then L*4 to the same node: the second arrival must be
	// processed as a rewritten PureRouter (L·L*3).
	web := webgraph.NewWeb()
	p := web.NewPage("http://a.example/x.html", "X")
	p.AddText("token-here")
	p.AddLink("/y.html", "y")
	y := web.NewPage("http://a.example/y.html", "Y")
	y.AddText("token-here")

	journal := trace.NewJournal("a.example", 0)
	h := newHarness(t, web, "a.example", Options{Journal: journal})

	wq := mustQuery(`select d.url from document d such that "http://a.example/x.html" L*2 d where d.text contains "token-here"`)
	mk := func(rem string, seq int64) *wire.CloneMsg {
		return &wire.CloneMsg{
			ID:     testID,
			Dest:   []wire.DestNode{{URL: "http://a.example/x.html", Origin: sinkName, Seq: seq}},
			Rem:    rem,
			Base:   0,
			Stages: nodeproc.EncodeStages(wq.Stages),
		}
	}
	h.send(t, mk("L*2", 1))
	h.waitMsgs(t, 2) // x batch + local continuation batch
	h.send(t, mk("L*4", 10))
	h.waitMsgs(t, 3)

	// The paper's query-multiple-rewrite: the superset arrival is
	// rewritten at x (L*4 -> L·L*3) and again at the next node y, where
	// the forwarded L*3 covers the logged L*1. The second rewrite rides
	// the continuation clone, which may still be queued when x's own
	// report (the third message) lands — poll the counter, don't race it.
	deadline := time.Now().Add(5 * time.Second)
	for h.met.DupRewritten.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.met.DupRewritten.Load() != 2 {
		t.Fatalf("DupRewritten = %d", h.met.DupRewritten.Load())
	}
	details := map[string]bool{}
	for _, e := range journal.Events() {
		if e.Kind == trace.Rewrite {
			details[e.Detail] = true
		}
	}
	for _, want := range []string{"L*4 -> L·L*3", "L*3 -> L·L*2"} {
		if !details[want] {
			t.Errorf("missing rewrite %q in %v", want, details)
		}
	}
}

func TestServerRetiresOnMalformedClone(t *testing.T) {
	web := webgraph.Campus()
	h := newHarness(t, web, "csa.iisc.ernet.in", Options{})
	h.send(t, &wire.CloneMsg{
		ID:   testID,
		Dest: []wire.DestNode{{URL: webgraph.CampusStart, Origin: sinkName, Seq: 7}},
		Rem:  "((bogus",
	})
	msgs := h.waitMsgs(t, 1)
	if got := msgs[0].Updates[0].Processed.Seq; got != 7 {
		t.Errorf("retired seq = %d", got)
	}
}

func TestServerNoBatchOption(t *testing.T) {
	metBatched := runCampusStage1(t, Options{})
	metUnbatched := runCampusStage1(t, Options{NoBatch: true})
	// Stage 1 forwards to four local pages: batched that is one local
	// clone, unbatched it is four.
	if metBatched.LocalClones != 1 {
		t.Errorf("batched local clones = %d", metBatched.LocalClones)
	}
	if metUnbatched.LocalClones != 4 {
		t.Errorf("unbatched local clones = %d", metUnbatched.LocalClones)
	}
}

func runCampusStage1(t *testing.T, opts Options) Snapshot {
	t.Helper()
	web := webgraph.Campus()
	h := newHarness(t, web, "csa.iisc.ernet.in", opts)
	wq := mustQuery(webgraph.CampusDISQL)
	h.send(t, &wire.CloneMsg{
		ID:     testID,
		Dest:   []wire.DestNode{{URL: webgraph.CampusStart, Origin: sinkName, Seq: 1}},
		Rem:    "L",
		Base:   0,
		Stages: nodeproc.EncodeStages(wq.Stages),
	})
	// Start node routes; the batch of 4 local pages is processed next;
	// then the labs page advances and forwards 5 remote clones (which
	// fail, as no other servers run — forward failures trigger retire
	// dispatches).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h.met.DocsParsed.Load() >= 5 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let forwards settle
	return h.met.Snapshot()
}

func TestServerForwardFailureRetires(t *testing.T) {
	met := runCampusStage1(t, Options{})
	// The five global-link targets live on sites with no servers: every
	// forward fails and is retired.
	if met.ForwardFailed == 0 {
		t.Errorf("metrics = %+v", met)
	}
	if met.ClonesForwarded != 0 {
		t.Errorf("forwarded = %d", met.ClonesForwarded)
	}
}

func TestServerMaxHops(t *testing.T) {
	web := webgraph.Chain(10, 1, 1)
	nets := netsim.New(netsim.Options{})
	met := &Metrics{}
	var servers []*Server
	for _, site := range web.Hosts() {
		s := New(site, webserver.NewHost(site, web), nets, met, Options{MaxHops: 3})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		servers = append(servers, s)
	}
	ln, _ := nets.Listen(sinkName)
	defer ln.Close()
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
					if _, err := wire.Receive(framed); err != nil {
						return
					}
				}
			}()
		}
	}()
	wq := mustQuery(`select d.url from document d such that "http://c0.example/p0.html" N|G* d`)
	conn, err := nets.Dial(sinkName, Endpoint("c0.example"))
	if err != nil {
		t.Fatal(err)
	}
	wire.Send(conn, &wire.CloneMsg{
		ID:     testID,
		Dest:   []wire.DestNode{{URL: "http://c0.example/p0.html", Origin: sinkName, Seq: 1}},
		Rem:    "N|G*",
		Stages: nodeproc.EncodeStages(wq.Stages),
	})
	conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && met.HopsClamped.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if met.HopsClamped.Load() == 0 {
		t.Fatal("hop bound never triggered")
	}
	if got := met.Evaluations.Load(); got != 4 { // hops 0..3
		t.Errorf("evaluations = %d, want 4", got)
	}
}

func TestEndpointName(t *testing.T) {
	if Endpoint("a.example") != "a.example/query" {
		t.Errorf("Endpoint = %q", Endpoint("a.example"))
	}
}

func TestOptionsDedupDefault(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want nodeproc.DedupMode
	}{
		{Options{}, nodeproc.DedupSubsume},
		{Options{Dedup: nodeproc.DedupOff}, nodeproc.DedupOff},
		{Options{Dedup: nodeproc.DedupStrong}, nodeproc.DedupStrong},
	} {
		s := New("a.example", nil, netsim.New(netsim.Options{}), &Metrics{}, tc.opts)
		if got := s.LogTable().Mode(); got != tc.want {
			t.Errorf("Options{Dedup: %v}: log table mode %v, want %v", tc.opts.Dedup, got, tc.want)
		}
	}
}

func TestServerDBCache(t *testing.T) {
	// Footnote 3: with CacheDBs the same node's database is constructed
	// once across repeat visits (here: two queries hitting the same page).
	web := webgraph.Campus()
	h := newHarness(t, web, "www2.csa.iisc.ernet.in", Options{CacheDBs: true})
	h.send(t, campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html"))
	h.waitMsgs(t, 1)
	second := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
	second.ID.Num = 2 // a different query: not a log-table duplicate
	second.ID.Site = sinkName
	h.send(t, second)
	h.waitMsgs(t, 2)
	m := h.met.Snapshot()
	if m.DocsParsed != 1 || m.DBCacheHits != 1 {
		t.Errorf("parsed=%d hits=%d, want 1 and 1", m.DocsParsed, m.DBCacheHits)
	}
	if m.Evaluations != 2 {
		t.Errorf("evaluations = %d", m.Evaluations)
	}
}

// TestServerStopMsgTerminatesClone checks the active-stop path: a
// StopMsg marks the query, and a later clone for it dies with the typed
// STOPPED retirement instead of being evaluated.
func TestServerStopMsgTerminatesClone(t *testing.T) {
	web := webgraph.Campus()
	h := newHarness(t, web, "dsl.serc.iisc.ernet.in", Options{})

	conn, err := h.net.Dial(sinkName, Endpoint(h.server.Site()))
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Send(conn, &wire.StopMsg{ID: testID, Reason: "test stop"}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The stop is handled on the receive path; give it a beat to land.
	waitStop := time.Now().Add(5 * time.Second)
	for time.Now().Before(waitStop) {
		if h.server.isStopped(testID) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	h.send(t, campusStage2Clone("http://dsl.serc.iisc.ernet.in/index.html"))
	msgs := h.waitMsgs(t, 1)
	if !msgs[0].Stopped {
		t.Errorf("retirement not typed as stopped: %+v", msgs[0])
	}
	if len(msgs[0].Updates) != 1 || len(msgs[0].Tables) != 0 {
		t.Errorf("stopped clone should retire without evaluating: %+v", msgs[0])
	}
	m := h.met.Snapshot()
	if m.Stopped != 1 {
		t.Errorf("Stopped = %d, want 1", m.Stopped)
	}
	if m.Evaluations != 0 {
		t.Errorf("Evaluations = %d, want 0 (stop precedes evaluation)", m.Evaluations)
	}
}
