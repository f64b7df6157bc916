package server

import (
	"fmt"
	"net"
	"sync"
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

// TestMalformedCloneRetiresCached: a clone with an unparsable PRE must
// still retire every destination (or the user-site waits forever), and
// the parse failure must not poison the cache: a repeat of the same
// malformed clone behaves identically.
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
		msgs := h.waitMsgs(t, round)
		last := msgs[len(msgs)-1]
		if len(last.Updates) != 2 {
			t.Fatalf("round %d: retired %d entries, want 2", round, len(last.Updates))
		}
		for _, u := range last.Updates {
			if len(u.Children) != 0 {
				t.Fatalf("round %d: malformed clone spawned children", round)
			}
		}
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
	if updates != 10 || children != 9 {
		t.Fatalf("updates=%d children=%d, want 10 and 9", updates, children)
	}
}

// quiesce waits until the stream of result messages stops growing, then
// returns them — for workloads whose message count is not known a priori
// (e.g. forward failures that retire clones after the main report).
func (h *harness) quiesce(t *testing.T) []*wire.ResultMsg {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last, stable := -1, 0
	for time.Now().Before(deadline) {
		h.mu.Lock()
		cur := len(h.msgs)
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
	if err := srv.send(sink, msg); err != nil {
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

	if err := srv.send(sink, msg); err != nil {
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
