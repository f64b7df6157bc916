package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webdis/internal/cluster"
	"webdis/internal/core"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/server"
	"webdis/internal/webgraph"
)

// T16: replicated sites. Two segments:
//
//   - Scaling: a hot site whose answers saturate its uplink, served by
//     1, 2 and 4 replicas. Every result of one replica leaves over that
//     replica's (bandwidth-limited) connection to the session collector,
//     so replicas multiply the aggregate egress the way extra machines
//     multiply a real site's capacity — the closed-loop throughput of a
//     fixed worker pool is the headline.
//   - Availability: 3 replicas under the same workload while 0, 1 and 2
//     of them are killed mid-run. Every query must still terminate;
//     failover and the reaper's replay keep the clean-completion
//     fraction high, and every degradation is booked (Partial, reaped),
//     never silent.

// ReplicaCell is one scaling measurement.
type ReplicaCell struct {
	Replicas int `json:"replicas"`
	Workers  int `json:"workers"`
	Queries  int `json:"queries"`

	ElapsedMs float64 `json:"elapsed_ms"`
	QPS       float64 `json:"qps"`
	// SpeedupX is this cell's QPS over the 1-replica cell's.
	SpeedupX float64 `json:"speedup_x"`
	// ReplicasUsed counts replicas that evaluated at least one query —
	// the rendezvous hash must actually spread the keys.
	ReplicasUsed int `json:"replicas_used"`
	LostRows     int `json:"lost_rows"` // queries returning short answers (must be 0)
}

// ReplicaKillCell is one availability measurement: 3 replicas, `Kills`
// of them killed at the third points of the run.
type ReplicaKillCell struct {
	Kills   int `json:"kills"`
	Queries int `json:"queries"`

	Clean   int `json:"clean"`   // full answer, not Partial
	Partial int `json:"partial"` // terminated degraded (reaper accounted)
	Failed  int `json:"failed"`  // Wait error (none expected)
	// AvailabilityPct is Clean/Queries — the grid's headline.
	AvailabilityPct float64 `json:"availability_pct"`

	Failovers     int64 `json:"failovers"`
	Replays       int64 `json:"replays"`
	StaleRejected int64 `json:"stale_rejected"`
	Reaped        int64 `json:"reaped"`
}

// ReplicasOut is the T16 result.
type ReplicasOut struct {
	Scale []ReplicaCell     `json:"scale"`
	Kills []ReplicaKillCell `json:"kills"`
}

// The hot-site workload: one site, one large document; each query
// returns the whole text, so the dominant per-query cost is shipping
// the answer over the replica's bandwidth-limited uplink (the regime
// where replication, not a faster CPU, is the fix).
const (
	repSite         = "hot.example"
	repPayloadWords = 5000    // ~30 KiB of text per answer
	repBW           = 3 << 19 // bytes/second per connection (1.5 MiB/s)
	repWorkers      = 12      // closed-loop clients
	repKillReplicas = 3       // replica count in the availability grid
)

func repWeb() *webgraph.Web {
	w := webgraph.NewWeb()
	r := rand.New(rand.NewSource(16))
	p := w.NewPage("http://"+repSite+"/blob.html", "Hot blob")
	p.AddText("This page carries the payload token " + webgraph.Marker + ".")
	words := repPayloadWords
	for words > 0 {
		n := 40 + r.Intn(40)
		if n > words {
			n = words
		}
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "w%d ", r.Intn(5000))
		}
		p.AddText(sb.String())
		words -= n
	}
	return w
}

func repDISQL() string {
	return fmt.Sprintf(`select d.text from document d such that %q N d where d.text contains %q`,
		"http://"+repSite+"/blob.html", webgraph.Marker)
}

// Replicas runs T16 and writes BENCH_PR6.json.
func Replicas(w io.Writer) (*ReplicasOut, error) {
	return replicasRun(w, 25, "BENCH_PR6.json")
}

// replicasRun is the parameterized body; outPath == "" skips the JSON
// artifact (the shape test's mode).
func replicasRun(w io.Writer, perWorker int, outPath string) (*ReplicasOut, error) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1000))

	out := &ReplicasOut{}
	for _, r := range []int{1, 2, 4} {
		cell, err := repScaleCell(r, perWorker)
		if err != nil {
			return nil, fmt.Errorf("replicas scale x%d: %w", r, err)
		}
		out.Scale = append(out.Scale, *cell)
	}
	base := out.Scale[0].QPS
	for i := range out.Scale {
		if base > 0 {
			out.Scale[i].SpeedupX = out.Scale[i].QPS / base
		}
	}
	for _, k := range []int{0, 1, 2} {
		cell, err := repKillCell(k, perWorker)
		if err != nil {
			return nil, fmt.Errorf("replicas kill %d: %w", k, err)
		}
		out.Kills = append(out.Kills, *cell)
	}

	fmt.Fprintln(w, "T16: replicated sites — throughput scaling and availability under replica kills")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "scaling: %d closed-loop workers on one hot site, %d KiB answer per query,\n",
		repWorkers, repPayloadWords*6/1024)
	fmt.Fprintf(w, "each replica's uplink limited to %.1f MiB/s\n", float64(repBW)/(1<<20))
	var rows [][]string
	for _, c := range out.Scale {
		rows = append(rows, []string{
			fmt.Sprint(c.Replicas), fmt.Sprint(c.Queries),
			fmt.Sprintf("%.0f", c.ElapsedMs), fmt.Sprintf("%.0f", c.QPS),
			fmt.Sprintf("%.2fx", c.SpeedupX), fmt.Sprint(c.ReplicasUsed),
			fmt.Sprint(c.LostRows),
		})
	}
	table(w, []string{"replicas", "queries", "elapsed ms", "qps", "speedup", "used", "lost rows"}, rows)

	fmt.Fprintf(w, "\navailability: %d replicas, kills at the third points of each run\n", repKillReplicas)
	rows = rows[:0]
	for _, c := range out.Kills {
		rows = append(rows, []string{
			fmt.Sprint(c.Kills), fmt.Sprint(c.Queries),
			fmt.Sprint(c.Clean), fmt.Sprint(c.Partial), fmt.Sprint(c.Failed),
			fmt.Sprintf("%.1f%%", c.AvailabilityPct),
			fmt.Sprint(c.Failovers), fmt.Sprint(c.Replays),
			fmt.Sprint(c.StaleRejected), fmt.Sprint(c.Reaped),
		})
	}
	table(w, []string{"kills", "queries", "clean", "partial", "failed", "availability", "failovers", "replays", "stale", "reaped"}, rows)

	if outPath != "" {
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "\nmachine-readable results written to %s\n", outPath)
	}
	return out, nil
}

// repScaleCell measures closed-loop throughput at one replica count.
func repScaleCell(replicas, perWorker int) (*ReplicaCell, error) {
	d, err := core.NewDeployment(core.Config{
		Web: repWeb(),
		Net: netsim.Options{BytesPerSecond: repBW},
		Exec: core.ExecConfig{
			Server:       server.Options{CacheDBs: true},
			NoDocService: true,
			Replicas:     replicas,
		},
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	sess, err := d.Client().NewSession()
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	// Warm the parse cache, the session pool and each replica's DB cache.
	warm, err := disql.Parse(repDISQL())
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		q, err := sess.Submit(warm)
		if err != nil {
			return nil, err
		}
		if err := q.Wait(30 * time.Second); err != nil {
			return nil, err
		}
	}

	cell := &ReplicaCell{Replicas: replicas, Workers: repWorkers, Queries: repWorkers * perWorker}
	var lost atomic.Int64
	errs := make(chan error, repWorkers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < repWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wq, err := disql.Parse(repDISQL())
			if err != nil {
				errs <- err
				return
			}
			for k := 0; k < perWorker; k++ {
				q, err := sess.Submit(wq)
				if err != nil {
					errs <- err
					return
				}
				if err := q.Wait(30 * time.Second); err != nil {
					errs <- err
					return
				}
				rows := 0
				for _, t := range q.Results() {
					rows += len(t.Rows)
				}
				if rows != 1 {
					lost.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	cell.ElapsedMs = float64(elapsed.Microseconds()) / 1e3
	if elapsed > 0 {
		cell.QPS = float64(cell.Queries) / elapsed.Seconds()
	}
	cell.LostRows = int(lost.Load())
	for key, sn := range d.SiteSnapshots() {
		if strings.HasPrefix(key, repSite) && sn.Evaluations > 0 {
			cell.ReplicasUsed++
		}
	}
	return cell, nil
}

// repKillCell runs the same closed loop against 3 replicas and kills
// `kills` of them at the third points of the run (by completed-query
// count, so the schedule is load-relative, not wall-clock guesswork).
func repKillCell(kills, perWorker int) (*ReplicaKillCell, error) {
	d, err := core.NewDeployment(core.Config{
		Web: repWeb(),
		Net: netsim.Options{BytesPerSecond: repBW},
		Exec: core.ExecConfig{
			Server: server.Options{
				CacheDBs: true,
				Retry:    server.RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 10 * time.Millisecond, Timeout: 200 * time.Millisecond},
			},
			NoDocService: true,
			Replicas:     repKillReplicas,
			Cluster:      cluster.Options{SuspectAfter: 1, DownAfter: 1},
			ReapGrace:    250 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	sess, err := d.Client().NewSession()
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	warm, err := disql.Parse(repDISQL())
	if err != nil {
		return nil, err
	}
	if q, err := sess.Submit(warm); err != nil {
		return nil, err
	} else if err := q.Wait(30 * time.Second); err != nil {
		return nil, err
	}

	cell := &ReplicaKillCell{Kills: kills, Queries: repWorkers * perWorker}
	killAt := []int64{int64(cell.Queries) / 3, int64(cell.Queries) * 2 / 3}
	var done atomic.Int64
	var killMu sync.Mutex
	nextKill := 0
	maybeKill := func(n int64) {
		killMu.Lock()
		defer killMu.Unlock()
		for nextKill < kills && n >= killAt[nextKill] {
			// Kill replicas 1 then 2; replica 0 survives every cell.
			d.Network().Kill(cluster.ReplicaEndpoint(repSite, nextKill+1))
			nextKill++
		}
	}

	var clean, partial, failed atomic.Int64
	errs := make(chan error, repWorkers)
	var wg sync.WaitGroup
	for i := 0; i < repWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wq, err := disql.Parse(repDISQL())
			if err != nil {
				errs <- err
				return
			}
			for k := 0; k < perWorker; k++ {
				q, err := sess.Submit(wq)
				if err != nil {
					errs <- err
					return
				}
				waitErr := q.Wait(30 * time.Second)
				rows := 0
				for _, t := range q.Results() {
					rows += len(t.Rows)
				}
				switch {
				case waitErr != nil:
					failed.Add(1)
				case q.Partial() || rows != 1:
					partial.Add(1)
				default:
					clean.Add(1)
				}
				maybeKill(done.Add(1))
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	cell.Clean = int(clean.Load())
	cell.Partial = int(partial.Load())
	cell.Failed = int(failed.Load())
	cell.AvailabilityPct = 100 * float64(cell.Clean) / float64(cell.Queries)
	// The deployment aggregate covers both halves of recovery: the
	// client's dispatch/replay counters and the servers' re-resolved
	// forwards.
	sn := d.Metrics().Snapshot()
	cell.Failovers = sn.Failovers
	cell.Replays = sn.ReplicaReplays
	cell.StaleRejected = sn.StaleRejected
	cell.Reaped = sn.CHTReaped
	return cell, nil
}
