package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// TestConcurrentQueryStress hammers one deployment with overlapping
// queries from many goroutines while every PR-3 hot-path structure is
// live — the per-site log tables, the singleflight DB cache, the shared
// parse cache and the connection pools. Run under -race (the CI race job
// covers this package) it is the regression net for the check-then-insert
// and map races those structures replaced; functionally each query must
// deliver the same complete answer regardless of interleaving.
func TestConcurrentQueryStress(t *testing.T) {
	web := webgraph.Random(webgraph.RandomOpts{
		Sites: 10, PagesPerSite: 2, LocalOut: 2, GlobalOut: 2,
		MarkerFrac: 0.5, FillerWords: 12, Seed: 11,
	})
	src := fmt.Sprintf(`select d.url from document d such that %q N|(G|L)*2 d where d.text contains %q`,
		web.First(), webgraph.Marker)

	goroutines, perG := 6, 3
	if testing.Short() {
		goroutines, perG = 3, 2
	}
	for _, cacheDBs := range []bool{false, true} {
		t.Run(fmt.Sprintf("CacheDBs=%v", cacheDBs), func(t *testing.T) {
			d, err := NewDeployment(Config{
				Web: web,
				Exec: ExecConfig{
					Server:       server.Options{Workers: 4, CacheDBs: cacheDBs},
					NoDocService: true,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			// One clean run establishes the expected answer.
			q, err := d.Run(src, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, tbl := range q.Results() {
				want += len(tbl.Rows)
			}
			if want == 0 {
				t.Fatal("workload yields no rows; stress is vacuous")
			}

			var wg sync.WaitGroup
			errs := make(chan error, goroutines*perG)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						q, err := d.Run(src, 30*time.Second)
						if err != nil {
							errs <- err
							return
						}
						got := 0
						for _, tbl := range q.Results() {
							got += len(tbl.Rows)
						}
						if got != want {
							errs <- fmt.Errorf("concurrent run delivered %d rows, want %d", got, want)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
