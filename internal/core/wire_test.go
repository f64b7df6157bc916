package core

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// wireProfiles enumerates the deployment wire configurations the
// differential suite sweeps: every site on v2 (the default), every site
// pinned to framed gob, and a mixed estate where roughly half the sites
// are pinned to v1 and the rest negotiate v2 per connection.
func wireProfiles() map[string]func(Config) Config {
	pinned := func(site string) bool {
		h := fnv.New32a()
		h.Write([]byte(site))
		return h.Sum32()%2 == 0
	}
	return map[string]func(Config) Config{
		"all-v2": func(c Config) Config { return c },
		"all-v1": func(c Config) Config {
			c.Exec.Server.WireV1 = true
			return c
		},
		"mixed": func(c Config) Config {
			c.Exec.SiteServerOptions = func(site string, o server.Options) server.Options {
				o.WireV1 = pinned(site)
				return o
			}
			return c
		},
	}
}

// TestWireVersionDifferential is the codec acceptance property: the wire
// format must be invisible in the answers. Every planner query must
// produce identical output on all-v2, all-v1 and mixed-version
// deployments.
func TestWireVersionDifferential(t *testing.T) {
	for i, src := range plannerQueries() {
		var baseline string
		for _, name := range []string{"all-v2", "all-v1", "mixed"} {
			cfg := wireProfiles()[name](Config{Web: plannerWeb(), Exec: ExecConfig{Server: plannerOn()}})
			d, err := NewDeployment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			q, err := d.Run(src, waitFor)
			if err != nil {
				d.Close()
				t.Fatalf("query %d on %s: %v", i, name, err)
			}
			got := renderResults(q)
			d.Close()
			if name == "all-v2" {
				baseline = got
				continue
			}
			if got != baseline {
				t.Errorf("query %d: %s differs from all-v2\n%s:\n%s\nall-v2:\n%s",
					i, name, name, got, baseline)
			}
		}
	}
}

// TestWireVersionDifferentialTCP repeats the version sweep over real
// sockets: negotiation (the pipelined hello and its lazy ack) must
// survive a transport that fragments and coalesces writes.
func TestWireVersionDifferentialTCP(t *testing.T) {
	src := plannerQueries()[1] // group by: exercises frags, stats and batching
	var baseline string
	for _, name := range []string{"all-v2", "all-v1", "mixed"} {
		cfg := wireProfiles()[name](Config{
			Web: plannerWeb(),
			Exec: ExecConfig{
				Server:    plannerOn(),
				Transport: netsim.NewTCP(),
			},
		})
		d, err := NewDeployment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q, err := d.Run(src, waitFor)
		if err != nil {
			d.Close()
			t.Fatalf("%s over TCP: %v", name, err)
		}
		got := renderResults(q)
		d.Close()
		if name == "all-v2" {
			baseline = got
			continue
		}
		if got != baseline {
			t.Errorf("%s over TCP differs from all-v2\ngot:\n%s\nwant:\n%s", name, got, baseline)
		}
	}
}

// TestMixedWireThroughOneCollector: the collector's frame options belong
// to the client, not to a query, and every site keeps one negotiated
// session to it for all queries. A gob-pinned client among v2 sites and a
// v2 client among gob-pinned sites must both keep answering the campus
// query correctly — on the first run, which negotiates, and on later runs
// over the sessions it left behind — with the user-site's edges really on
// the other format: total bytes fall strictly between the pure profiles.
func TestMixedWireThroughOneCollector(t *testing.T) {
	sitesAre := func(v1 bool) func(string, server.Options) server.Options {
		return func(_ string, o server.Options) server.Options {
			o.WireV1 = v1
			return o
		}
	}
	profiles := []struct {
		name string
		cfg  ExecConfig
	}{
		{"all-v2", ExecConfig{}},
		{"all-v1", ExecConfig{Server: server.Options{WireV1: true}}},
		// The deployment pins its user-site to its servers' profile; the
		// per-site hook then moves every site to the other one.
		{"v1-client-v2-sites", ExecConfig{Server: server.Options{WireV1: true}, SiteServerOptions: sitesAre(false)}},
		{"v2-client-v1-sites", ExecConfig{SiteServerOptions: sitesAre(true)}},
	}
	bytes := make(map[string]int64)
	var baseline string
	for _, p := range profiles {
		cfg := p.cfg
		cfg.NoDocService = true
		d, err := NewDeployment(Config{Web: webgraph.Campus(), Exec: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			q, err := d.Run(webgraph.CampusDISQL, waitFor)
			if err != nil {
				d.Close()
				t.Fatalf("%s run %d: %v", p.name, i, err)
			}
			got := renderResults(q)
			if baseline == "" {
				baseline = got
				if res := q.Results(); len(res) != 2 || len(res[1].Rows) != 3 {
					t.Fatalf("campus answer = %+v", res)
				}
			}
			if got != baseline || q.LiveEntries() != 0 {
				t.Errorf("%s run %d differs from all-v2 (live=%d)\ngot:\n%s\nwant:\n%s", p.name, i, q.LiveEntries(), got, baseline)
			}
		}
		bytes[p.name] = d.Network().Stats().Snapshot().Total().Bytes
		d.Close()
	}
	for _, mixed := range []string{"v1-client-v2-sites", "v2-client-v1-sites"} {
		if b := bytes[mixed]; b <= bytes["all-v2"] || b >= bytes["all-v1"] {
			t.Errorf("%s moved %d B, want between all-v2 (%d) and all-v1 (%d): the mix did not take",
				mixed, b, bytes["all-v2"], bytes["all-v1"])
		}
	}
}

// TestWireVersionDifferentialFaults replays the T11 fault schedule
// against every wire profile: drops and severs hit mid-frame and
// mid-handshake, and the recovery machinery (retries, reaper) must still
// deliver the complete, identical answer on every profile.
func TestWireVersionDifferentialFaults(t *testing.T) {
	retry := server.RetryPolicy{
		Attempts: 5,
		Base:     time.Millisecond,
		Max:      20 * time.Millisecond,
		Timeout:  500 * time.Millisecond,
	}
	for _, seed := range []int64{1, 2} {
		web := func() *webgraph.Web {
			return webgraph.Tree(webgraph.TreeOpts{
				Fanout: 3, Depth: 3, PagesPerSite: 1,
				MarkerFrac: 0.6, FillerWords: 30, Seed: seed,
			})
		}
		src := fmt.Sprintf(
			`select d.url, count(*) from document d such that %q N|(G*3) d where d.text contains %q group by d.url order by d.url`,
			web().First(), webgraph.Marker)

		var baseline string
		for _, name := range []string{"all-v2", "all-v1", "mixed"} {
			cfg := wireProfiles()[name](Config{
				Web: web(),
				Net: netsim.Options{Faults: netsim.FaultPlan{Seed: seed, Drop: 0.05, Sever: 0.01}},
				Exec: ExecConfig{
					Server:    server.Options{Retry: retry},
					ReapGrace: 2 * time.Second,
				},
			})
			d, err := NewDeployment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			q, err := d.Run(src, 30*time.Second)
			if err != nil {
				d.Close()
				t.Fatalf("seed %d on %s: %v", seed, name, err)
			}
			got := renderResults(q)
			d.Close()
			if name == "all-v2" {
				baseline = got
				continue
			}
			if got != baseline {
				t.Errorf("seed %d: %s differs from all-v2 under faults\ngot:\n%s\nwant:\n%s",
					seed, name, got, baseline)
			}
		}
	}
}

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
