package server_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"webdis/internal/centralized"
	"webdis/internal/client"
	"webdis/internal/core"
	"webdis/internal/disql"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

func sortedRows(tables []client.ResultTable) string {
	var rows []string
	for _, tb := range tables {
		for _, row := range tb.Rows {
			rows = append(rows, fmt.Sprintf("%d|%s", tb.Stage, strings.Join(row, "|")))
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestSerialSlotsSharedByLiveQueries runs 16 queries at once over a web
// with many arrival paths per page, under a sweep that frees every
// record idle for a microsecond, every millisecond: records are freed
// and queries come back to fresh ones constantly, yet no two live
// entries of a query may collide — every CHT drains and every answer is
// the oracle's.
func TestSerialSlotsSharedByLiveQueries(t *testing.T) {
	web := webgraph.Random(webgraph.RandomOpts{
		Sites: 6, PagesPerSite: 4, LocalOut: 2, GlobalOut: 2, MarkerFrac: 0.5, FillerWords: 20, Seed: 3,
	})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)*4 d where d.text contains %q`,
		web.First(), webgraph.Marker)
	d, err := core.NewDeployment(core.Config{Web: web, Exec: core.ExecConfig{Server: sweepEvery(time.Microsecond, time.Millisecond)}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	oracle, err := centralized.Run(d.Network(), "central/results", disql.MustParse(src), centralized.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(oracle.Tables)
	if want == "" {
		t.Fatal("oracle returned no rows; the workload checks nothing")
	}

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := d.Run(src, 20*time.Second)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if live := q.LiveEntries(); live != 0 {
				t.Errorf("query %d: %d CHT entries never retired", i, live)
			}
			if got := sortedRows(q.Results()); got != want {
				t.Errorf("query %d: rows differ from the oracle's\n got %s\nwant %s", i, got, want)
			}
		}()
	}
	wg.Wait()
}

func sweepEvery(age, every time.Duration) server.Options {
	return server.Options{LogPurgeAge: age, LogPurgeEvery: every}
}

// TestSweepFreesEveryIdleRecord: with the sweep on, 300 queries one after
// the other and one sweep leave no record at any site, and the log
// tables empty — except the record of a standing watch, which survives
// every sweep.
func TestSweepFreesEveryIdleRecord(t *testing.T) {
	web := webgraph.Campus()
	d, err := core.NewDeployment(core.Config{Web: web, Exec: core.ExecConfig{Server: sweepEvery(time.Hour, time.Hour)}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 300; i++ {
		if _, err := d.Run(webgraph.CampusDISQL, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	w, err := d.Watch(context.Background(), webgraph.CampusDISQL, core.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, site := range web.Hosts() {
		s := d.Server(site)
		s.Sweep(0)
		if !s.Watching(w.ID()) {
			t.Errorf("%s: the sweep freed a standing watch", site)
		}
		// The watch's baseline run ended before the sweep: its record
		// is the watch's, and nothing else survives.
		if n := s.Records(); n != 1 {
			t.Errorf("%s: %d records after the sweep, want the watch's 1", site, n)
		}
	}
	w.Close()
	for _, site := range web.Hosts() {
		s := d.Server(site)
		for deadline := time.Now().Add(5 * time.Second); s.Watching(w.ID()) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		s.Sweep(0)
		if n, logged := s.Records(), s.LogTable().Len(); n != 0 || logged != 0 {
			t.Errorf("%s: %d records and %d log entries after the watch closed", site, n, logged)
		}
	}
}
