package server

import (
	"testing"
	"time"

	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/sched"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

func TestServerBudgetDeadlineExpires(t *testing.T) {
	web := webgraph.Campus()
	h := newHarness(t, web, "www2.csa.iisc.ernet.in", Options{})
	c := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
	c.Budget = wire.Budget{Deadline: time.Now().Add(-time.Millisecond).UnixNano()}
	h.send(t, c)
	msgs := h.waitMsgs(t, 1)
	// The clone expired on arrival: its entry retires via a typed EXPIRED
	// report, nothing is evaluated, no children spawn.
	if msgs[0].Fate != wire.FateExpired {
		t.Fatalf("report not marked expired: %+v", msgs[0])
	}
	if got := msgs[0].Updates[0].Processed.Seq; got != 1 {
		t.Errorf("retired seq = %d", got)
	}
	if len(msgs[0].Updates[0].Children) != 0 || len(msgs[0].Tables) != 0 {
		t.Errorf("expired clone produced work: %+v", msgs[0])
	}
	m := h.met.Snapshot()
	if m.BudgetExpired != 1 || m.Evaluations != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestServerBudgetHopQuota(t *testing.T) {
	// The same chain as TestServerMaxHops, bounded by the wire-carried
	// hop quota instead of the site-local MaxHops option: the budget
	// travels with the query, so no server needs configuring.
	web := webgraph.Chain(10, 1, 1)
	nets := netsim.New(netsim.Options{})
	met := &Metrics{}
	for _, site := range web.Hosts() {
		s := New(site, webserver.NewHost(site, web), nets, met, Options{})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
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
		Budget: wire.Budget{Hops: 3},
	})
	conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && met.BudgetExpired.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if met.BudgetExpired.Load() == 0 {
		t.Fatal("hop quota never triggered")
	}
	// Quota 3 admits the root plus three forwards: evaluations at hops
	// 0..3, exactly like MaxHops 3.
	if got := met.Evaluations.Load(); got != 4 {
		t.Errorf("evaluations = %d, want 4", got)
	}
	if met.HopsClamped.Load() != 0 {
		t.Errorf("budget clamp misattributed to HopsClamped")
	}
}

func TestServerBudgetCloneQuota(t *testing.T) {
	// Campus stage 1: the labs page forwards five remote clone messages.
	// A clone-spawn quota of 3 lets the start node's one local batch
	// (charge 1) hand its child a quota of 2: two remote messages ship,
	// three are suppressed before their entries are announced.
	web := webgraph.Campus()
	h := newHarness(t, web, "csa.iisc.ernet.in", Options{})
	wq := mustQuery(webgraph.CampusDISQL)
	h.send(t, &wire.CloneMsg{
		ID:     testID,
		Dest:   []wire.DestNode{{URL: webgraph.CampusStart, Origin: sinkName, Seq: 1}},
		Rem:    "L",
		Base:   0,
		Stages: nodeproc.EncodeStages(wq.Stages),
		Budget: wire.Budget{Clones: 3},
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && h.met.BudgetExpired.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	m := h.met.Snapshot()
	if m.BudgetExpired != 3 {
		t.Errorf("BudgetExpired = %d, want 3 suppressed messages", m.BudgetExpired)
	}
	// The two admitted remote forwards fail (no servers there) and
	// bounce; the suppressed three produce no fate at all — they were
	// never announced.
	if m.Bounced != 2 {
		t.Errorf("Bounced = %d, want 2", m.Bounced)
	}
}

func TestServerBudgetRowQuota(t *testing.T) {
	web := webgraph.NewWeb()
	x := web.NewPage("http://a.example/x.html", "X")
	for _, n := range []string{"y1", "y2", "y3"} {
		x.AddLink("/"+n+".html", n)
		p := web.NewPage("http://a.example/"+n+".html", n)
		p.AddText("tok")
	}
	h := newHarness(t, web, "a.example", Options{})
	wq := mustQuery(`select d.url from document d such that "http://a.example/x.html" L d where d.text contains "tok"`)
	h.send(t, &wire.CloneMsg{
		ID:     testID,
		Dest:   []wire.DestNode{{URL: "http://a.example/x.html", Origin: sinkName, Seq: 1}},
		Rem:    "L",
		Stages: nodeproc.EncodeStages(wq.Stages),
		Budget: wire.Budget{Rows: 2},
	})
	msgs := h.waitMsgs(t, 2) // x routes, then the 3-dest local batch
	rows := 0
	for _, m := range msgs {
		for _, tbl := range m.Tables {
			rows += len(tbl.Rows)
		}
	}
	if rows != 2 {
		t.Errorf("rows delivered = %d, want quota 2", rows)
	}
	if got := h.met.RowsClipped.Load(); got != 1 {
		t.Errorf("RowsClipped = %d, want 1", got)
	}
}

func TestServerShedsOverHighWater(t *testing.T) {
	// An unstarted server never drains its queue, so the depth is fully
	// test-controlled: two in-flight clones reach the watermark, and the
	// next fresh root dispatch must come back as a result frame retiring
	// it with the typed SHED fate.
	web := webgraph.Campus()
	nets := netsim.New(netsim.Options{})
	met := &Metrics{}
	site := "www2.csa.iisc.ernet.in"
	s := New(site, webserver.NewHost(site, web), nets, met, Options{
		Sched: sched.Options{Fair: true, HighWater: 2, LowWater: 1},
	})
	t.Cleanup(s.Stop)

	ln, err := nets.Listen(sinkName)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sheds := make(chan *wire.ResultMsg, 1)
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
					if rm, ok := msg.(*wire.ResultMsg); ok && rm.Fate == wire.FateShed {
						sheds <- rm
					}
				}
			}()
		}
	}()

	inflight := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
	inflight.Hops = 2
	s.Enqueue(inflight)
	inflight2 := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/people.html")
	inflight2.Hops = 2
	inflight2.ID.Num = 2
	s.Enqueue(inflight2)

	fresh := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
	fresh.ID.Num = 3 // a different query, hop 0: a fresh root dispatch
	s.Enqueue(fresh)

	select {
	case rm := <-sheds:
		if len(rm.Updates) != 1 || webgraph.Host(rm.Updates[0].Processed.Node) != site {
			t.Errorf("shed retirements = %+v, want the one entry at %s", rm.Updates, site)
		}
		if rm.ID.Num != 3 {
			t.Errorf("shed clone = %+v", rm.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no SHED message arrived")
	}
	if met.Shed.Load() != 1 || met.QueueHighWater.Load() != 1 {
		t.Errorf("Shed = %d, QueueHighWater = %d", met.Shed.Load(), met.QueueHighWater.Load())
	}
	if met.QueueDepth.Load() != 2 {
		t.Errorf("QueueDepth = %d, want the two admitted clones", met.QueueDepth.Load())
	}
	if st := s.SchedStats(); st.Depth != 2 || st.Shed != 1 {
		t.Errorf("sched stats = %+v", st)
	}
}

// TestServerStopWithBlockedWorker is the shutdown regression test: Stop
// must unblock workers waiting in the scheduler's Pop and discard
// whatever is still queued, without deadlocking.
func TestServerStopWithBlockedWorker(t *testing.T) {
	web := webgraph.Campus()
	nets := netsim.New(netsim.Options{})
	site := "www2.csa.iisc.ernet.in"
	for _, opts := range []Options{
		{Workers: 4},
		{Workers: 2, Sched: sched.Options{Fair: true, HighWater: 8}},
	} {
		s := New(site, webserver.NewHost(site, web), nets, &Metrics{}, opts)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		// Leave a backlog so Stop must discard, then stop while every
		// worker is either mid-clone or blocked on an empty queue.
		for i := 0; i < 6; i++ {
			c := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
			c.ID.Num = i
			s.Enqueue(c)
		}
		done := make(chan struct{})
		go func() { s.Stop(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("Stop deadlocked with opts %+v", opts)
		}
	}
}

func TestBackoffDeterministic(t *testing.T) {
	pol := RetryPolicy{Attempts: 5, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	seq := func(rng *lockedRand) []time.Duration {
		var out []time.Duration
		for n := 1; n <= 4; n++ {
			out = append(out, pol.backoff(n, rng))
		}
		return out
	}
	a := seq(newLockedRand(0, "a.example"))
	b := seq(newLockedRand(0, "a.example"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same site, different jitter: %v vs %v", a, b)
		}
	}
	c := seq(newLockedRand(0, "b.example"))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Errorf("different sites drew identical jitter schedules: %v", a)
	}
	d := seq(newLockedRand(42, "a.example"))
	e := seq(newLockedRand(42, "z.example"))
	for i := range d {
		if d[i] != e[i] {
			t.Fatalf("explicit seed not site-independent: %v vs %v", d, e)
		}
	}
}
