package server_test

import (
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

// TestSerialSlotsSharedByLiveQueries forces every site's CHT-serial
// table down to two slots and runs 16 queries at once over a web with
// many arrival paths per page: queries now share counters (and "forget"
// theirs to each other constantly), yet no two live entries of a query
// may collide — every CHT drains and every answer is the oracle's.
func TestSerialSlotsSharedByLiveQueries(t *testing.T) {
	web := webgraph.Random(webgraph.RandomOpts{
		Sites: 6, PagesPerSite: 4, LocalOut: 2, GlobalOut: 2, MarkerFrac: 0.5, FillerWords: 20, Seed: 3,
	})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)*4 d where d.text contains %q`,
		web.First(), webgraph.Marker)
	d, err := core.NewDeployment(core.Config{Web: web})
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
	for _, site := range web.Hosts() {
		d.Server(site).SetSerialSlots(2)
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
