package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

// TestSiteFailureMidQuery injects a site failure while the query runs:
// forwards to the dead site fail, their CHT entries are written off, and
// the query still completes with the reachable part of the answer,
// declared partial.
func TestSiteFailureMidQuery(t *testing.T) {
	web := webgraph.Campus()
	d, err := NewDeployment(Config{
		Web: web,
		Net: netsim.Options{Latency: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Kill the DSL site's query server before the stage-2 clones reach it.
	d.Network().SetDown(server.Endpoint("dsl.serc.iisc.ernet.in"), true)
	q, err := d.Run(webgraph.CampusDISQL, 10*time.Second)
	if err != nil {
		t.Fatalf("query did not complete despite the failure: %v", err)
	}
	var q2 client.ResultTable
	for _, rt := range q.Results() {
		if rt.Stage == 1 {
			q2 = rt
		}
	}
	// Two of the three conveners remain reachable.
	if len(q2.Rows) != 2 {
		t.Errorf("q2 rows = %+v", q2.Rows)
	}
	for _, row := range q2.Rows {
		if strings.Contains(row[0], "dsl.serc") {
			t.Errorf("row from the dead site: %v", row)
		}
	}
	// The loss is declared: the dead site's clone bounced to the
	// user-site, which has no proxy and wrote it off.
	if d.Metrics().CHTReaped.Load() == 0 {
		t.Error("no write-off recorded")
	}
	if !q.Partial() || !slices.Equal(q.Unreachable(), []string{"dsl.serc.iisc.ernet.in"}) || !errors.Is(q.Err(), client.ErrPartial) {
		t.Errorf("partial = %v unreachable = %v err = %v, want the dead site declared", q.Partial(), q.Unreachable(), q.Err())
	}
}

// TestLogPurgeDuringQuery purges every server's log table aggressively
// while a query runs. The paper: an over-eager purge "only affects the
// performance of the system but not the correctness of the results".
func TestLogPurgeDuringQuery(t *testing.T) {
	web := webgraph.Random(webgraph.RandomOpts{Sites: 10, PagesPerSite: 2, GlobalOut: 2, MarkerFrac: 0.5, Seed: 77})
	d, err := NewDeployment(Config{
		Web: web,
		Exec: ExecConfig{
			Server: server.Options{
				MaxHops:       8, // purged logs allow recomputation; bound it
				LogPurgeAge:   time.Microsecond,
				LogPurgeEvery: time.Millisecond,
			},
			NoDocService: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	src := `select d.url from document d such that "` + web.First() + `" N|(G*4) d where d.text contains "` + webgraph.Marker + `"`
	q, err := d.Run(src, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, row := range q.Results()[0].Rows {
		got[row[0]] = true
	}
	// Reference run with sane log tables.
	ref, err := NewDeployment(Config{Web: web, Exec: ExecConfig{NoDocService: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	qr, err := ref.Run(src, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range qr.Results()[0].Rows {
		if !got[row[0]] {
			t.Errorf("purged run lost row %v", row)
		}
	}
	if len(got) != len(qr.Results()[0].Rows) {
		t.Errorf("row sets differ: %d vs %d", len(got), len(qr.Results()[0].Rows))
	}
}

// TestInteriorLinksTraverseInPlace exercises the I link category: an
// interior link leads back to the same web resource.
func TestInteriorLinksTraverseInPlace(t *testing.T) {
	web := webgraph.NewWeb()
	p := web.NewPage("http://a.example/doc.html", "Doc")
	p.AddText("token-alpha")
	p.AddLink("#section", "go to section") // interior
	p.AddLink("/other.html", "other")      // local
	o := web.NewPage("http://a.example/other.html", "Other")
	o.AddText("token-beta")

	d := deployTraced(t, web, server.Options{})
	// I·L: one interior hop (staying on doc.html), then one local hop.
	q := run(t, d, `
select d.url
from document d such that "http://a.example/doc.html" I·L d
where d.text contains "token-beta"`)
	rows := q.Results()[0].Rows
	if len(rows) != 1 || rows[0][0] != "http://a.example/other.html" {
		t.Fatalf("rows = %v", rows)
	}
	// The interior hop revisited doc.html in a new state.
	tr := traversal(d.Journey(q).Traversal())
	if tr.count("http://a.example/doc.html", "route") != 2 {
		t.Errorf("doc.html routes = %d, want 2 (arrival + interior revisit)", tr.count("http://a.example/doc.html", "route"))
	}
}

func TestInteriorStarTerminates(t *testing.T) {
	// I* would loop forever without the log table: the second interior
	// arrival carries the same state and is purged.
	web := webgraph.NewWeb()
	p := web.NewPage("http://a.example/doc.html", "Doc")
	p.AddText("token-alpha")
	p.AddLink("#top", "top")
	d := deploy(t, web, server.Options{})
	q := run(t, d, `
select d.url
from document d such that "http://a.example/doc.html" N|I* d
where d.text contains "token-alpha"`)
	if rows := q.Results()[0].Rows; len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if d.Metrics().DupDropped.Load() == 0 {
		t.Error("the interior loop should have been cut by the log table")
	}
}

// TestBandwidthShapesTransfer runs the campus query over a very slow
// fabric and checks that finite bandwidth actually slows delivery, by
// comparison with an unshaped run of the same query.
func TestBandwidthShapesTransfer(t *testing.T) {
	elapsed := func(bps int64) time.Duration {
		d, err := NewDeployment(Config{
			Web: webgraph.Campus(),
			Net: netsim.Options{BytesPerSecond: bps},
			Exec: ExecConfig{
				NoDocService: true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		// Take the best of three to damp scheduler noise.
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := d.Run(webgraph.CampusDISQL, 30*time.Second); err != nil {
				t.Fatal(err)
			}
			if e := time.Since(start); e < best {
				best = e
			}
		}
		return best
	}
	fast := elapsed(0)        // unlimited
	slow := elapsed(16 << 10) // 16 KiB/s: even v2's compact frames need real time
	if slow < 2*fast {
		t.Errorf("bandwidth shaping had no effect: unlimited %v vs 64KiB/s %v", fast, slow)
	}
}

// TestTCPDeploymentEndToEnd runs the full campus query over real TCP
// sockets inside one process: six servers, six document hosts and a
// client on a TCPTransport — the same wiring the webdisd/webdis commands
// use across processes.
func TestTCPDeploymentEndToEnd(t *testing.T) {
	web := webgraph.Campus()
	tr := netsim.NewTCP()
	met := &server.Metrics{}
	for _, site := range web.Hosts() {
		h := webserver.NewHost(site, web)
		if err := h.Start(tr); err != nil {
			t.Fatal(err)
		}
		defer h.Stop()
		s := server.New(site, h, tr, met, server.Options{})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
	}
	// tcp://127.0.0.1:0 would bind an ephemeral port the name does not
	// carry; remote sites dial the name, so use a fixed port.
	c := client.New(tr, "tcp-test", "tcp://127.0.0.1:7411")
	defer c.Close()
	q, err := c.Submit(disql.MustParse(webgraph.CampusDISQL))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := q.Results()
	if len(res) != 2 || len(res[1].Rows) != 3 {
		t.Fatalf("results = %+v", res)
	}
	// Real bytes crossed loopback sockets.
	tot := tr.Stats().Snapshot().Total()
	if tot.Bytes == 0 || tot.ByKind[wire.KindClone] == 0 || tot.ByKind[wire.KindResult] == 0 {
		t.Errorf("tcp traffic = %+v", tot)
	}
}

// TestManyConcurrentQueriesUnderLatency stresses the full stack: many
// concurrent queries over a latency-injected fabric, all completing with
// balanced CHTs.
func TestManyConcurrentQueriesUnderLatency(t *testing.T) {
	d, err := NewDeployment(Config{
		Web: webgraph.Campus(),
		Net: netsim.Options{Latency: time.Millisecond},
		Exec: ExecConfig{
			NoDocService: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := d.SubmitDISQL(webgraph.CampusDISQL)
			if err != nil {
				errs <- err
				return
			}
			if err := q.Wait(20 * time.Second); err != nil {
				errs <- err
				return
			}
			if st := q.Stats(); st.EntriesAdded != st.EntriesRetired {
				errs <- errImbalance(st)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errImbalance client.Stats

func (e errImbalance) Error() string {
	return "CHT imbalance"
}
