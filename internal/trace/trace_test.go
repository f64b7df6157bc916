package trace

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webdis/internal/wire"
)

func span(origin string, seq int64) wire.SpanID { return wire.SpanID{Origin: origin, Seq: seq} }

func TestJournalAppendAndFlush(t *testing.T) {
	j := NewJournal("a.example", 8)
	if j.Site() != "a.example" {
		t.Fatalf("site = %q", j.Site())
	}
	j.Append(Event{Kind: Arrive, Query: "q1"})
	j.Append(Event{Kind: Forward, Query: "q1", Site: "elsewhere"})
	evs := j.Events()
	if len(evs) != 2 || j.Len() != 2 {
		t.Fatalf("events = %d, len = %d", len(evs), j.Len())
	}
	if evs[0].Site != "a.example" {
		t.Errorf("owner not stamped: %q", evs[0].Site)
	}
	if evs[1].Site != "elsewhere" {
		t.Errorf("explicit site overwritten: %q", evs[1].Site)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Errorf("seqs = %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[1].At < evs[0].At {
		t.Errorf("timestamps not monotone: %v then %v", evs[0].At, evs[1].At)
	}
	if got := len(j.Flush()); got != 2 {
		t.Fatalf("flush = %d events", got)
	}
	if j.Len() != 0 || len(j.Events()) != 0 {
		t.Fatalf("journal not reset: len %d", j.Len())
	}
	j.Append(Event{Kind: Arrive})
	if j.Len() != 1 {
		t.Fatalf("append after flush: len %d", j.Len())
	}
}

func TestJournalDropsWhenFull(t *testing.T) {
	j := NewJournal("a", 4)
	for i := 0; i < 10; i++ {
		j.Append(Event{Kind: Arrive})
	}
	if j.Len() != 4 {
		t.Errorf("len = %d, want 4", j.Len())
	}
	if j.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", j.Dropped())
	}
	j.Flush()
	if j.Dropped() != 0 {
		t.Errorf("dropped after flush = %d", j.Dropped())
	}
}

func TestNilJournalIsValid(t *testing.T) {
	var j *Journal
	j.Append(Event{Kind: Arrive})
	if j.Len() != 0 || j.Dropped() != 0 || j.Events() != nil || j.Flush() != nil || j.Site() != "" {
		t.Fatal("nil journal misbehaved")
	}
}

// TestJournalConcurrentAppend hammers one journal from many goroutines
// while a reader drains it; run with -race.
func TestJournalConcurrentAppend(t *testing.T) {
	j := NewJournal("a", 512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.Append(Event{Kind: Evaluate, Hop: g})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			j.Events()
		}
	}()
	wg.Wait()
	<-done
	if got := j.Len() + int(j.Dropped()); got != 800 {
		t.Fatalf("committed+dropped = %d, want 800", got)
	}
}

// TestJournalFlushBesideAppend drains a journal while writers keep
// appending, the way webdisd -v does: every event comes out at most once
// and whole; run with -race.
func TestJournalFlushBesideAppend(t *testing.T) {
	j := NewJournal("a", 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Append(Event{Kind: Evaluate, Hop: g*500 + i, Detail: strconv.Itoa(g*500 + i)})
			}
		}(g)
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	seen := make(map[int]bool)
	drain := func() {
		for _, e := range j.Flush() {
			if e.Detail != strconv.Itoa(e.Hop) {
				t.Fatalf("torn event: hop %d detail %q", e.Hop, e.Detail)
			}
			if seen[e.Hop] {
				t.Fatalf("event %d flushed twice", e.Hop)
			}
			seen[e.Hop] = true
		}
	}
	for running := true; running; {
		select {
		case <-stop:
			running = false
		default:
			time.Sleep(20 * time.Microsecond) // a spinning flusher keeps the ring shut
		}
		drain()
	}
	if len(seen) == 0 || len(seen) > 2000 {
		t.Fatalf("flushed %d distinct events of 2000 appended", len(seen))
	}
}

// testEvents is a hand-built two-site journey: the user dispatches a
// root clone to site a, which evaluates and forwards two children — one
// arrives at b and reports, one vanishes on the wire.
func testEvents() []Event {
	root, c1, c2 := span("user/q1", 1), span("a/query", 1), span("a/query", 2)
	return []Event{
		{At: 1, Site: "user", Query: "q", Span: root, Kind: Dispatch, State: "(1, L)", Detail: "a"},
		{At: 2, Site: "a", Query: "q", Span: root, Kind: Arrive, State: "(1, L)", Hop: 0},
		{At: 3, Site: "a", Query: "q", Span: root, Kind: Evaluate, Node: "http://a/x", State: "(1, N)"},
		{At: 4, Site: "a", Query: "q", Span: root, Kind: Result},
		{At: 5, Site: "a", Query: "q", Span: c1, Parent: root, Kind: Forward, Detail: "b", Hop: 1},
		{At: 6, Site: "a", Query: "q", Span: c2, Parent: root, Kind: Forward, Detail: "c", Hop: 1},
		{At: 7, Site: "b", Query: "q", Span: c1, Kind: Arrive, Hop: 1},
		{At: 8, Site: "b", Query: "q", Span: c1, Kind: Result},
		{At: 9, Site: "x", Query: "other", Span: span("x", 9), Kind: Arrive},
	}
}

func TestBuildJourney(t *testing.T) {
	jy := BuildJourney("q", testEvents())
	if len(jy.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(jy.Spans))
	}
	if len(jy.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(jy.Roots))
	}
	root := jy.Roots[0]
	if root.Site != "a" || root.Fate != FateProcessed || len(root.Children) != 2 {
		t.Fatalf("root = %+v", root)
	}
	if root.Latency() != 1 {
		t.Errorf("root latency = %v", root.Latency())
	}
	c1 := root.Children[0]
	if c1.Site != "b" || c1.FromSite != "a" || c1.Fate != FateProcessed || c1.Hop != 1 {
		t.Fatalf("c1 = %+v", c1)
	}
	c2 := root.Children[1]
	if c2.Fate != FateInFlight || c2.DestSite != "c" {
		t.Fatalf("c2 = %+v", c2)
	}
	if jy.Complete() {
		t.Error("journey with a vanished clone reported complete")
	}
	lost := jy.LostEdges()
	if len(lost) != 1 || lost[[2]string{"a", "c"}] != 1 {
		t.Errorf("lost edges = %v", lost)
	}
	// Events of other queries must not leak in.
	for _, e := range jy.Events {
		if e.Query != "q" {
			t.Errorf("foreign event leaked: %+v", e)
		}
	}
}

func TestJourneyFates(t *testing.T) {
	mk := func(extra ...Event) *Journey {
		base := []Event{
			{At: 1, Site: "a", Query: "q", Span: span("a", 1), Kind: Forward, Detail: "b", Hop: 1},
		}
		return BuildJourney("q", append(base, extra...))
	}
	if jy := mk(); jy.Spans[span("a", 1)].Fate != FateInFlight {
		t.Errorf("no arrival: fate = %q", jy.Spans[span("a", 1)].Fate)
	}
	if jy := mk(Event{At: 2, Site: "a", Query: "q", Span: span("a", 1), Kind: ForwardFailed, Detail: "b"}); jy.Spans[span("a", 1)].Fate != FateLostForward {
		t.Errorf("forward failed: fate = %q", jy.Spans[span("a", 1)].Fate)
	}
	if jy := mk(Event{At: 2, Site: "a", Query: "q", Span: span("a", 1), Kind: Bounce}); jy.Spans[span("a", 1)].Fate != FateBounced {
		t.Errorf("bounce: fate = %q", jy.Spans[span("a", 1)].Fate)
	}
	if jy := mk(
		Event{At: 2, Site: "b", Query: "q", Span: span("a", 1), Kind: Arrive, Hop: 1},
		Event{At: 3, Site: "b", Query: "q", Span: span("a", 1), Kind: Terminate},
	); jy.Spans[span("a", 1)].Fate != FateTerminated {
		t.Errorf("terminate: fate = %q", jy.Spans[span("a", 1)].Fate)
	}
	// A bounced clone later processed centrally ends up processed.
	if jy := mk(
		Event{At: 2, Site: "a", Query: "q", Span: span("a", 1), Kind: Bounce},
		Event{At: 3, Site: "user", Query: "q", Span: span("a", 1), Kind: Arrive, Hop: 1},
		Event{At: 4, Site: "user", Query: "q", Span: span("a", 1), Kind: Result},
	); jy.Spans[span("a", 1)].Fate != FateProcessed {
		t.Errorf("bounce then fallback: fate = %q", jy.Spans[span("a", 1)].Fate)
	}
	if jy := mk(Event{At: 2, Site: "a", Query: "q", Span: span("a", 1), Kind: Retry, Detail: "b attempt 2"}); jy.Spans[span("a", 1)].Retries != 1 {
		t.Errorf("retries = %d", jy.Spans[span("a", 1)].Retries)
	}
}

func TestExporters(t *testing.T) {
	jy := BuildJourney("q", testEvents())

	trav := jy.Traversal()
	if len(trav) != 1 || trav[0].Action != "eval" || trav[0].Node != "http://a/x" {
		t.Fatalf("traversal = %+v", trav)
	}
	if !strings.Contains(jy.FormatTraversal(), "http://a/x") {
		t.Error("FormatTraversal missing the node")
	}

	tree := jy.Tree()
	if !strings.Contains(tree, "a hop=0") || !strings.Contains(tree, "  b hop=1") {
		t.Errorf("tree:\n%s", tree)
	}

	dot := jy.DOT()
	for _, want := range []string{"digraph journey", `"a" -> "b"`, "color=red", "1 lost"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}

	data, err := jy.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	var slices, flows int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			slices++
		case "s":
			flows++
		}
	}
	if slices != 3 || flows != 2 {
		t.Errorf("chrome trace: %d slices, %d flow starts", slices, flows)
	}
}

func TestSpanIDString(t *testing.T) {
	if s := span("a/query", 3).String(); s != "a/query#3" {
		t.Errorf("String = %q", s)
	}
	var zero wire.SpanID
	if !zero.IsZero() || zero.String() != "-" {
		t.Errorf("zero span: IsZero=%v String=%q", zero.IsZero(), zero.String())
	}
}
