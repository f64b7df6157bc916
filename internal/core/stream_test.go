package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/trace"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// streamTestWeb is the faults-sized tree: 40 single-page sites, every
// tree edge a Global link, 60% of pages carrying the marker.
func streamTestWeb() *webgraph.Web {
	return webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 3, PagesPerSite: 1,
		MarkerFrac: 0.6, FillerWords: 30, Seed: 2,
	})
}

func streamTestQuery(w *webgraph.Web) string {
	return fmt.Sprintf(`select d.url from document d such that %q N|(G*3) d where d.text contains %q`,
		w.First(), webgraph.Marker)
}

// streamChain builds a chain of single-page marker sites with documents
// heavy enough that per-site processing dominates the user-site's stop
// round-trip (the regime where an active stop can outrun the frontier).
func streamChain(sites, fillerWords int) *webgraph.Web {
	var filler strings.Builder
	for i := 0; i < fillerWords; i++ {
		fmt.Fprintf(&filler, " w%d", i)
	}
	w := webgraph.NewWeb()
	urls := make([]string, sites)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://s%d.chain.example/p.html", i)
	}
	for i := 0; i < sites; i++ {
		p := w.NewPage(urls[i], fmt.Sprintf("Chain %d", i))
		p.AddText("This page holds the token " + webgraph.Marker + "." + filler.String())
		if i+1 < sites {
			p.AddLink(urls[i+1], "next")
		}
	}
	return w
}

// sortedRows flattens (stage, row) pairs into a canonical sorted form so
// streamed and buffered views can be compared as multisets.
func sortedRows(pairs []client.StreamRow) []string {
	out := make([]string, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, fmt.Sprintf("%d|%s", p.Stage, strings.Join(p.Row, "\x1f")))
	}
	sort.Strings(out)
	return out
}

func bufferedRows(q *client.Query) []string {
	var out []string
	for _, t := range q.Results() {
		for _, r := range t.Rows {
			out = append(out, fmt.Sprintf("%d|%s", t.Stage, strings.Join(r, "\x1f")))
		}
	}
	sort.Strings(out)
	return out
}

// testStreamParity runs a fan-in query, consumes the stream concurrently
// through Query.Rows, and checks the streamed rows are exactly the
// buffered result tables. (A fan-in web, unlike a tree, gives sites
// several arrivals per query, so one site's result frames interleave
// with its children's.)
func testStreamParity(t *testing.T, transport netsim.Transport) {
	t.Helper()
	web := webgraph.PowerLaw(webgraph.PowerLawOpts{
		Pages: 60, PagesPerSite: 2, OutLinks: 2,
		MarkerFrac: 0.5, FillerWords: 30, Seed: 3,
	})
	cfg := Config{
		Web: web,
		Exec: ExecConfig{
			NoDocService: true,
			Transport:    transport,
		},
	}
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q, err := d.SubmitDISQL(streamTestQuery(web))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []client.StreamRow, 1)
	go func() {
		var pairs []client.StreamRow
		for stage, row := range q.Rows() {
			pairs = append(pairs, client.StreamRow{Stage: stage, Row: row})
		}
		got <- pairs
	}()
	if err := q.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	streamed := sortedRows(<-got)
	buffered := bufferedRows(q)
	if len(buffered) == 0 {
		t.Fatal("query delivered no rows")
	}
	if strings.Join(streamed, "\n") != strings.Join(buffered, "\n") {
		t.Errorf("streamed rows != buffered rows:\nstreamed: %v\nbuffered: %v", streamed, buffered)
	}
	st := q.Stats()
	if st.RowsStreamed != len(buffered) {
		t.Errorf("RowsStreamed = %d, want %d", st.RowsStreamed, len(buffered))
	}
	if st.ConsumerLag != 0 {
		t.Errorf("ConsumerLag = %d after full drain, want 0", st.ConsumerLag)
	}
	if st.FirstRow <= 0 || st.FirstRow > st.Duration {
		t.Errorf("FirstRow = %v not within (0, %v]", st.FirstRow, st.Duration)
	}
	if st.ResultMsgs == 0 || st.EntriesRetired < st.ResultMsgs {
		t.Errorf("ResultMsgs = %d, EntriesRetired = %d, want 0 < msgs <= retired", st.ResultMsgs, st.EntriesRetired)
	}
}

func TestStreamParityPipe(t *testing.T) { testStreamParity(t, nil) }

func TestStreamParityTCP(t *testing.T) { testStreamParity(t, netsim.NewTCP()) }

// TestStreamChannelParity covers the channel form, Query.Stream, with
// the same multiset check against the buffered tables.
func TestStreamChannelParity(t *testing.T) {
	web := streamTestWeb()
	d, err := NewDeployment(Config{Web: web, Exec: ExecConfig{NoDocService: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.SubmitDISQL(streamTestQuery(web))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []client.StreamRow, 1)
	go func() {
		var pairs []client.StreamRow
		for sr := range q.Stream(context.Background()) {
			pairs = append(pairs, sr)
		}
		got <- pairs
	}()
	if err := q.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	streamed := sortedRows(<-got)
	buffered := bufferedRows(q)
	if len(buffered) == 0 {
		t.Fatal("query delivered no rows")
	}
	if strings.Join(streamed, "\n") != strings.Join(buffered, "\n") {
		t.Errorf("channel-streamed rows != buffered rows:\nstreamed: %v\nbuffered: %v", streamed, buffered)
	}
}

// TestFirstNActiveStop runs a FirstN query on a slow chain with tracing
// on and checks the full active-termination story: the user-site
// broadcast StopMsgs, clones died with typed STOPPED fates visible in
// both the metrics and the reconstructed journey, and the CHT still
// reconciled to a clean (non-reaped, non-partial) completion.
func TestFirstNActiveStop(t *testing.T) {
	// The stop racing the frontier is real concurrency: the user-site's
	// StopMsg must land while some chain site is still mid-evaluation.
	// Heavy documents make each window milliseconds wide, so losing all
	// ~28 windows in one run is rare — but under full-suite CPU
	// contention (and with the v2 codec shortening every hop) it
	// happens, so the racy half of the assertion gets a few
	// fresh-deployment attempts. The accounting invariants must hold on
	// every attempt, won race or lost.
	web := streamChain(30, 9000)
	src := fmt.Sprintf(`select d.url from document d such that %q N|(G*29) d where d.text contains %q`,
		web.First(), webgraph.Marker)
	won := false
	for attempt := 0; attempt < 6 && !won; attempt++ {
		d, err := NewDeployment(Config{Web: web, Exec: ExecConfig{NoDocService: true, Trace: true}})
		if err != nil {
			t.Fatal(err)
		}
		q, err := d.SubmitBudget(disql.MustParse(src), wire.Budget{FirstN: 3})
		if err != nil {
			d.Close()
			t.Fatal(err)
		}
		if err := q.Wait(30 * time.Second); err != nil {
			d.Close()
			t.Fatal(err)
		}
		st := q.Stats()
		if n := len(bufferedRows(q)); n != 3 {
			t.Errorf("rows = %d, want FirstN = 3", n)
		}
		if !q.Stopped() {
			t.Error("Stopped() = false after FirstN satisfied")
		}
		if st.StopsSent == 0 {
			t.Error("no StopMsg broadcasts recorded")
		}
		// Accounting: every CHT entry retired by reports, none reaped.
		if q.Partial() {
			t.Error("FirstN completion marked partial")
		}
		if st.Reaped != 0 {
			t.Errorf("Reaped = %d, want 0 (stop reports must retire entries)", st.Reaped)
		}
		if st.EntriesAdded != st.EntriesRetired {
			t.Errorf("CHT did not reconcile: %d added, %d retired", st.EntriesAdded, st.EntriesRetired)
		}
		met := d.Metrics().Snapshot()
		if met.Stopped > 0 {
			won = true
			// The journey agrees: stopped spans carry the typed fate,
			// and their count matches the metric.
			jy := d.Journey(q)
			stopped := 0
			jy.Walk(func(n *trace.SpanNode, _ int) {
				if n.Fate == trace.FateStopped {
					stopped++
				}
			})
			if int64(stopped) != met.Stopped {
				t.Errorf("journey has %d stopped spans, metrics counted %d", stopped, met.Stopped)
			}
		}
		d.Close()
	}
	if !won {
		t.Error("no clones terminated with a STOPPED fate in 6 attempts")
	}
}

// TestRunContextCancelStopsQuery checks an explicit ctx cancel surfaces
// as ErrCancelled and actively stops the traversal.
func TestRunContextCancelStopsQuery(t *testing.T) {
	web := streamChain(30, 2500)
	// Every hop takes 2 ms, so the 30-site traversal is still under way
	// when cancel() lands, however fast the sites evaluate.
	d, err := NewDeployment(Config{Web: web, Net: netsim.Options{Latency: 2 * time.Millisecond}, Exec: ExecConfig{NoDocService: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	src := fmt.Sprintf(`select d.url from document d such that %q N|(G*29) d where d.text contains %q`,
		web.First(), webgraph.Marker)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, err := d.SubmitContext(ctx, disql.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := q.WaitContext(ctx); !errors.Is(err, client.ErrCancelled) {
		t.Fatalf("WaitContext err = %v, want ErrCancelled", err)
	}
	if !errors.Is(q.Err(), client.ErrCancelled) {
		t.Errorf("q.Err() = %v, want ErrCancelled", q.Err())
	}
}
