package core

import (
	"fmt"
	"testing"
	"time"

	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// TestAdaptiveBatchTunes drives a wide result stream with no consumer so
// the collector's lag crosses the tune threshold, and asserts the
// feedback loop fired end to end: TUNE frames sent by the client and
// applied by the servers' batchers.
func TestAdaptiveBatchTunes(t *testing.T) {
	// A deep tree with sites holding 10 pages each: parent→child links
	// inside a site are local, so the traversal follows both link types.
	// 364 marker pages → 364 merged rows, far past the tune-up threshold.
	web := webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 5, PagesPerSite: 10,
		MarkerFrac: 1.0, FillerWords: 10, Seed: 5,
	})
	d, err := NewDeployment(Config{
		Web: web,
		Exec: ExecConfig{
			Server: server.Options{
				ResultBatch: server.BatchOptions{MaxRows: 8, MaxAge: 2 * time.Millisecond},
			},
			AdaptiveBatch: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	src := fmt.Sprintf(
		`select d.url from document d such that %q N|(L|G)*5 d where d.text contains %q`,
		web.First(), webgraph.Marker)
	q, err := d.Run(src, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Stats().TunesSent; got == 0 {
		t.Fatalf("no TUNE frames sent (high-water %d)", q.Stats().StreamHighWater)
	}
	if sn := d.Metrics().Snapshot(); sn.BatchTunes == 0 {
		t.Fatal("no server applied a TUNE frame")
	}
	// The answer must be unaffected by the tuning.
	res := q.Results()
	if len(res) == 0 || len(res[len(res)-1].Rows) != 364 {
		t.Fatalf("tuned query lost rows: %d tables, last has %d rows",
			len(res), len(res[len(res)-1].Rows))
	}
}
