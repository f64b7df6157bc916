package core

import (
	"fmt"
	"testing"

	"webdis/internal/webgraph"
)

// TestWireBytesDoNotAgeWithQueriesServed: what a query puts on the wire
// must not depend on how many queries the deployment served before it.
// CHT serials travel as varints on every forwarded destination and every
// reported entry; drawn from a site-lifetime counter they grew from one
// byte to two after 64 entries and to three after 8192, and the same
// query cost 11 % more bytes as the 400th than as the 100th. They are
// numbered per query now (server.serialTable).
func TestWireBytesDoNotAgeWithQueriesServed(t *testing.T) {
	web := webgraph.Tree(webgraph.TreeOpts{
		Fanout: 3, Depth: 4, PagesPerSite: 12, MarkerFrac: 0.1, FillerWords: 20, Seed: 7,
	})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(L|G)*4 d where d.text contains %q`,
		web.First(), webgraph.Marker)
	want := baselineRows(t, web, src)
	d := deployCfg(t, Config{Web: web, Exec: ExecConfig{NoDocService: true}})
	stats := d.Network().Stats()
	window := func(n int) int64 {
		t.Helper()
		before := stats.Snapshot().Total().Bytes
		for i := 0; i < n; i++ {
			q := run(t, d, src)
			if got := rowSet(q.Results()); len(got) != len(want) {
				t.Fatalf("%d rows, want %d", len(got), len(want))
			}
		}
		return stats.Snapshot().Total().Bytes - before
	}
	window(50)
	early := window(50) // queries 51–100
	window(250)
	late := window(50) // queries 351–400
	if diff := float64(late-early) / float64(early); diff > 0.01 || diff < -0.01 {
		t.Fatalf("queries 351–400 put %d B on the wire, queries 51–100 %d B (%+.1f%%): bytes depend on the deployment's age",
			late, early, 100*diff)
	}
}
