package server

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

// TestDocsParsedOnceConcurrent: many concurrent arrivals for the same
// node with Workers > 1 must construct its database exactly once — the
// singleflight closes the seed's check-then-insert window where racing
// workers each ran the Database Constructor.
func TestDocsParsedOnceConcurrent(t *testing.T) {
	web := webgraph.Campus()
	h := newHarness(t, web, "www2.csa.iisc.ernet.in", Options{Workers: 8, CacheDBs: true})

	// Same node, same PRE, but a distinct environment per arrival: the
	// log table keys on the environment, so none are purged and every
	// arrival needs the node's database.
	const n = 12
	for i := 0; i < n; i++ {
		c := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
		c.Dest[0].Seq = int64(i + 1)
		c.Env = map[string]string{"tag": fmt.Sprintf("t%d", i)}
		h.send(t, c)
	}
	h.waitMsgs(t, n)

	if got := h.met.DocsParsed.Load(); got != 1 {
		t.Fatalf("DocsParsed = %d, want 1 (singleflight + cache)", got)
	}
	if hits, co := h.met.DBCacheHits.Load(), h.met.DBBuildCoalesced.Load(); hits+co != n-1 {
		t.Errorf("DBCacheHits(%d) + DBBuildCoalesced(%d) = %d, want %d", hits, co, hits+co, n-1)
	}
}

// TestDuplicateDropParsesNothing: the second arrival of an identical
// clone is purged by the log table, and in steady state that purge-path
// check must be served entirely from the parse cache.
func TestDuplicateDropParsesNothing(t *testing.T) {
	web := webgraph.Campus()
	h := newHarness(t, web, "www2.csa.iisc.ernet.in", Options{})

	h.send(t, campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html"))
	h.waitMsgs(t, 1)

	missesBefore := h.met.ParseCacheMisses.Load()
	hitsBefore := h.met.ParseCacheHits.Load()
	dup := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
	dup.Dest[0].Seq = 2
	h.send(t, dup)
	h.waitMsgs(t, 2)

	if h.met.DupDropped.Load() != 1 {
		t.Fatalf("DupDropped = %d, want 1", h.met.DupDropped.Load())
	}
	if d := h.met.ParseCacheMisses.Load() - missesBefore; d != 0 {
		t.Errorf("duplicate arrival missed the parse cache %d times", d)
	}
	if d := h.met.ParseCacheHits.Load() - hitsBefore; d == 0 {
		t.Error("duplicate arrival recorded no parse-cache hits")
	}
}

// steadyCloneAllocs bounds TestSteadyCloneAllocs at the measured count.
const steadyCloneAllocs = 19

// TestSteadyCloneAllocs pins what one steady-state clone message costs a
// worker: Begin, the visits of its destinations, Finish and Reset, for
// the campus query's second-stage clone at the DSL lab's homepage (a dead
// end that forwards over its local links) and its people page (an
// answer), the databases retained. Two messages of the query, decoded
// apart, alternate, so the worker's compiled-query cache is consulted by
// structure, not by pointer; the log table is off, so every run evaluates
// and forwards.
func TestSteadyCloneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const site = "dsl.serc.iisc.ernet.in"
	srv := New(site, webserver.NewHost(site, webgraph.Campus()), netsim.New(netsim.Options{}), &Metrics{}, Options{CacheDBs: true})
	e := srv.eval
	e.Node.Log = nodeproc.NewLogTable(nodeproc.DedupOff)
	var clones [2]*wire.CloneMsg
	for i := range clones {
		clones[i] = campusStage2Clone("http://dsl.serc.iisc.ernet.in/index.html")
		clones[i].Dest = append(clones[i].Dest, wire.DestNode{URL: "http://dsl.serc.iisc.ernet.in/people.html", Origin: sinkName, Seq: 2})
	}
	var (
		b      nodeproc.Batch
		serial atomic.Int64
		n      int
	)
	visit := func() {
		c := clones[n%2]
		n++
		if err := b.Begin(&e, c, 1, &serial); err != nil {
			t.Fatal(err)
		}
		for _, d := range c.Dest {
			b.Add(d)
		}
		if got := b.Finish(); got.Evaluations != 2 || len(b.Tables) != 1 || len(b.Out) == 0 {
			t.Fatalf("want two evaluations, one answer and a forward: %+v, %d tables, %d clones out", got, len(b.Tables), len(b.Out))
		}
		b.Reset()
	}
	visit()
	allocs := testing.AllocsPerRun(100, visit)
	t.Logf("%.0f allocations per steady-state clone", allocs)
	if allocs > steadyCloneAllocs {
		t.Errorf("a steady-state clone costs %.0f allocations, want <= %d", allocs, steadyCloneAllocs)
	}
}

// TestMalformedCloneRetiresCached: a clone with an unparsable PRE must
// still go back to the user-site with every destination (or the user-site
// waits forever), and the parse failure must not poison the cache: a
// repeat of the same malformed clone behaves identically.
func TestMalformedCloneRetiresCached(t *testing.T) {
	web := webgraph.Campus()
	h := newHarness(t, web, "www2.csa.iisc.ernet.in", Options{})

	for round := 1; round <= 2; round++ {
		c := campusStage2Clone("http://www2.csa.iisc.ernet.in/~gang/lab.html")
		c.Rem = "L*(" // malformed
		c.Dest[0].Seq = int64(round * 10)
		c.Dest = append(c.Dest, wire.DestNode{
			URL: "http://www2.csa.iisc.ernet.in/~gang/pubs.html", Origin: sinkName, Seq: int64(round*10 + 1),
		})
		h.send(t, c)
		bounces := h.waitBounces(t, round)
		last := bounces[len(bounces)-1]
		if last.Reason != wire.BounceMalformed {
			t.Fatalf("round %d: bounce reason %q, want %q", round, last.Reason, wire.BounceMalformed)
		}
		if got := last.Clone.Dest; len(got) != 2 || got[0].Seq != int64(round*10) || got[1].Seq != int64(round*10+1) {
			t.Fatalf("round %d: bounced destinations %+v, want seqs %d and %d", round, got, round*10, round*10+1)
		}
	}
	if len(h.quiesce(t)) != 0 {
		t.Error("malformed clone was retired by a result frame")
	}
	if h.met.Evaluations.Load() != 0 {
		t.Errorf("malformed clone was evaluated %d times", h.met.Evaluations.Load())
	}
}

// TestParallelFanoutSameShape: the parallel fan-out decides only when
// the remote sends happen, never what is processed or forwarded. Run the
// campus query's first-stage clone and pin the quiesced CHT bookkeeping.
func TestParallelFanoutSameShape(t *testing.T) {
	h := newHarness(t, webgraph.Campus(), "csa.iisc.ernet.in", Options{})
	wq := mustQuery(webgraph.CampusDISQL)
	h.send(t, &wire.CloneMsg{
		ID:     testID,
		Dest:   []wire.DestNode{{URL: webgraph.CampusStart, Origin: sinkName, Seq: 1}},
		Rem:    wq.Stages[0].PRE.String(),
		Base:   0,
		Stages: nodeproc.EncodeStages(wq.Stages),
	})
	updates, children := 0, 0
	for _, m := range h.quiesce(t) {
		updates += len(m.Updates)
		for _, u := range m.Updates {
			children += len(u.Children)
		}
	}
	h.mu.Lock()
	for _, b := range h.bounces {
		updates += len(b.Clone.Dest)
	}
	h.mu.Unlock()
	if updates != 10 || children != 9 {
		t.Fatalf("retired+bounced=%d children=%d, want 10 and 9", updates, children)
	}
}

// quiesce waits until the stream of result and bounce messages stops
// growing, then returns the result messages — for workloads whose message
// count is not known a priori (e.g. forward failures that bounce clones
// after the main report).
func (h *harness) quiesce(t *testing.T) []*wire.ResultMsg {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last, stable := -1, 0
	for time.Now().Before(deadline) {
		h.mu.Lock()
		cur := len(h.msgs) + len(h.bounces)
		h.mu.Unlock()
		if cur == last && cur > 0 {
			stable++
			if stable > 20 { // ~100ms of silence
				h.mu.Lock()
				out := make([]*wire.ResultMsg, len(h.msgs))
				copy(out, h.msgs)
				h.mu.Unlock()
				return out
			}
		} else {
			stable = 0
		}
		last = cur
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("result stream never quiesced")
	return nil
}

// TestPooledSendStaleRecovery: a pooled connection whose peer closed it
// while idle (passive termination's signature move) is transparently
// replaced by a fresh dial within the same attempt — no retry consumed,
// matching the seed's per-message dial behaviour.
func TestPooledSendStaleRecovery(t *testing.T) {
	web := webgraph.Campus()
	n := netsim.New(netsim.Options{})
	met := &Metrics{}
	srv := New("www2.csa.iisc.ernet.in", webserverHost(t, web, "www2.csa.iisc.ernet.in"), n, met, Options{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	const sink = "user/q9"
	ln, err := n.Listen(sink)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var conns []net.Conn
	received := make(chan struct{}, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func() {
				framed := wire.NewFramed(c)
				for {
					if _, err := wire.Receive(framed); err != nil {
						return
					}
					received <- struct{}{}
				}
			}()
		}
	}()

	msg := &wire.ResultMsg{ID: testID}
	if err := srv.out.Send(sink, msg); err != nil {
		t.Fatal(err)
	}
	<-received
	if met.ConnDialed.Load() != 1 || met.ConnReused.Load() != 0 {
		t.Fatalf("after first send: dialed=%d reused=%d", met.ConnDialed.Load(), met.ConnReused.Load())
	}

	// The peer closes the pooled connection while it sits idle.
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()

	if err := srv.out.Send(sink, msg); err != nil {
		t.Fatal(err)
	}
	<-received
	if met.ConnReused.Load() != 1 || met.ConnStale.Load() != 1 {
		t.Fatalf("after stale send: reused=%d stale=%d", met.ConnReused.Load(), met.ConnStale.Load())
	}
	if met.ConnDialed.Load() != 2 {
		t.Fatalf("dialed = %d, want 2 (initial + stale replacement)", met.ConnDialed.Load())
	}
	if met.Retries.Load() != 0 {
		t.Fatalf("stale-conn recovery consumed %d retries", met.Retries.Load())
	}
}

func webserverHost(t *testing.T, web *webgraph.Web, site string) *webserver.Host {
	t.Helper()
	return webserver.NewHost(site, web)
}

// TestSenderRedialsPeerClosedTCP: a collector that exits closes its end
// of every pooled connection to it, and a later collector listens on the
// same address. A TCP write into the old connection succeeds once and
// its frame is lost, so the sender must see the close before it reuses
// the connection, and deliver over a fresh dial.
func TestSenderRedialsPeerClosedTCP(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the peer-close probe is Linux-only")
	}
	tr := netsim.NewTCP()
	const sink = "user.example/c"
	received := make(chan any, 4)
	listen := func() *netsim.Serving {
		ln, err := tr.Listen(sink) // the second time, at the first's address
		if err != nil {
			t.Fatal(err)
		}
		return netsim.Serve(ln, func(c net.Conn) {
			f := wire.NewFramed(c)
			for {
				msg, err := wire.Receive(f)
				if err != nil {
					return
				}
				received <- msg
			}
		})
	}
	arrives := func() {
		t.Helper()
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			t.Fatal("the report never arrived")
		}
	}
	met := &Metrics{}
	out := NewSender(tr, "site.example/query", met, nil, nil)
	defer out.Close()

	first := listen()
	msg := &wire.ResultMsg{ID: testID}
	if err := out.Send(sink, msg); err != nil {
		t.Fatal(err)
	}
	arrives()
	first.Close()
	first.Wait()
	second := listen()
	defer second.Close()
	time.Sleep(20 * time.Millisecond) // let the close reach the pooled end

	if err := out.Send(sink, msg); err != nil {
		t.Fatal(err)
	}
	arrives()
	if met.ConnStale.Load() != 1 || met.ConnDialed.Load() != 2 {
		t.Errorf("stale = %d dialed = %d, want 1 and 2", met.ConnStale.Load(), met.ConnDialed.Load())
	}
}
