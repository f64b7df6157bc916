package core

import (
	"fmt"
	"strings"
	"testing"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// TestWorkersCompileQueriesApart: one site serves a whole web with eight
// query-processor workers, each with its own compiled-query cache. Two
// users submit the same query text — clones with identical stages under
// different query ids — interleaved with a query whose stages differ, all
// in flight at once. Every answer equals the centralized baseline's. Run
// under -race, it also checks that no compiled query is shared between
// the workers.
func TestWorkersCompileQueriesApart(t *testing.T) {
	// 40 pages on one host: every link is local, every clone goes to the
	// one server.
	web := webgraph.Tree(webgraph.TreeOpts{Fanout: 3, Depth: 3, PagesPerSite: 40, MarkerFrac: 0.5, FillerWords: 30, Seed: 5})
	root := "http://t0.example/p0.html"
	same := fmt.Sprintf(`select d0.url, d1.url
from document d0 such that %q N|L d0,
where d0.text contains %q
     document d1 such that d0 L*2 d1
where d1.text contains %q`, root, webgraph.Marker, webgraph.Marker)
	other := fmt.Sprintf(`select d.url from document d such that %q N|(L*3) d where d.text contains %q`, root, webgraph.Marker)
	want := map[string]string{same: reference(t, web, same), other: reference(t, web, other)}
	for src, rows := range want {
		if !strings.Contains(rows, "http://t0.example/") {
			t.Fatalf("the baseline answers nothing to %s", src)
		}
	}

	d := deployCfg(t, Config{Web: web, Exec: ExecConfig{Server: server.Options{Workers: 8}}})
	bob := client.New(d.Transport(), "bob", "bob-host")
	t.Cleanup(bob.Close)
	type run struct {
		src string
		q   *client.Query
	}
	var runs []run
	for round := 0; round < 4; round++ {
		for _, sub := range []struct {
			c   *client.Client
			src string
		}{{d.Client(), same}, {bob, same}, {d.Client(), other}} {
			q, err := sub.c.Submit(disql.MustParse(sub.src))
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{sub.src, q})
		}
	}
	for i, r := range runs {
		if err := r.q.Wait(waitFor); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := renderResults(r.q); got != want[r.src] {
			t.Errorf("query %d answered\n%s\nthe centralized baseline\n%s", i, got, want[r.src])
		}
	}
}
