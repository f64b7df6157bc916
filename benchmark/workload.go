package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloadSpec describes one workload: its web, query and deployment.
// Names are fixed; later issues cite them.
type workloadSpec struct {
	Name string
	Why  string
	// Tree is the generated web (nil = the paper's campus web). Markers is
	// the range of marker-page counts the generator seed is chosen to
	// produce: the marker is drawn per page, so without this the answer
	// size — and with it every per-op count — would change from seed to
	// seed. (The big web allows one page either way: a row is 0.1 % of its
	// traffic, and an exact hit would cost ten generations of 6 MB.)
	Tree    *treeSpec
	Markers [2]int
	// Cols, PRE and Extra build the marker query over a tree web.
	Cols, PRE, Extra string
	Deploy           deployOpts
	// Store serves from stores pre-built during set-up (PoolPages frames
	// per site), deployed on a never-rendered copy of the web.
	Store bool
	// WatchSteps > 0 makes this the standing-query workload: one op is one
	// mutation step, run in schedules of WatchSteps on fresh deployments.
	WatchSteps int
	// Ops is the fixed op count of one round of a full run (cycles of the
	// mutation schedules for the watch); SmokeOps the same at -smoke scale.
	Ops, SmokeOps int
	// HeapOps is the op count of the first round (schedule count for the
	// watch) at which heap_live_mib is read. The live heap grows with
	// every query a deployment has served, so it is compared at equal
	// age, not at whatever age a timed round happens to reach.
	HeapOps int
}

const storePoolPages = 16 // 64 KiB of resident pages per site

var workloads = []*workloadSpec{
	{
		Name:   "campus-warm",
		Why:    "paper's 2-stage convener query, databases retained: per-message protocol cost, working set fits the cache",
		Deploy: deployOpts{CacheDBs: true},
		Ops:    6000, SmokeOps: 20, HeapOps: 1000,
	},
	{
		Name: "tree40-docs",
		Tree: &treeSpec{Fanout: 3, Depth: 3, PagesPerSite: 1, MarkerFrac: 0.6, FillerWords: 5000}, Markers: [2]int{24, 24},
		Cols: "d.url", PRE: "N|(G*3)",
		Why: "40 sites of 43 KB pages, database built per clone arrival: HTML parse and contains-scan dominate",
		Ops: 200, SmokeOps: 3, HeapOps: 30,
	},
	{
		Name: "fanout-tcp",
		Tree: &treeSpec{Fanout: 3, Depth: 5, PagesPerSite: 9, MarkerFrac: 1.0, FillerWords: 8}, Markers: [2]int{364, 364},
		Cols: "d.url, d.title", PRE: "N|(L|G)*5",
		Why:    "364 small pages, 364 rows over real loopback TCP: wire codec, sockets, queues and row merge dominate",
		Deploy: deployOpts{TCP: true},
		Ops:    300, SmokeOps: 3, HeapOps: 50,
	},
	{
		Name: "bigtree-store",
		Tree: &treeSpec{Fanout: 3, Depth: 5, PagesPerSite: 12, MarkerFrac: 0.05, FillerWords: 2000}, Markers: [2]int{17, 19},
		Cols: "d.url", PRE: "N|(L|G)*5", Extra: ` and d.text not contains "qqfillerzz"`,
		Why:   "6 MB web served from disk stores through 64 KiB pools: working set far above cache, text index decides",
		Store: true,
		Ops:   150, SmokeOps: 3, HeapOps: 25,
	},
	{
		Name: "tree40-watch",
		Tree: &treeSpec{Fanout: 3, Depth: 3, PagesPerSite: 1, MarkerFrac: 0.6, FillerWords: 2000}, Markers: [2]int{24, 24},
		Cols: "d.url", PRE: "N|(G*3)",
		Why:        "standing query under seeded mutations: invalidation, DELTA pushes and re-derivation beside reads",
		WatchSteps: 200,
		Ops:        1, SmokeOps: 1, HeapOps: 1,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// runConfig is what the command line decides for every workload.
type runConfig struct {
	Seed      int64
	Smoke     bool
	SetupReps int    // set-ups per query workload; setup_s is their median
	WarmOps   int    // untimed ops on a new deployment, so caches fill before timing
	ProbeReps int    // repetitions a probe's figure is the median of
	OutDir    string // scratch space (stores) and trace files
}

const watchCompareEvery = 50 // steps between oracle comparisons of a standing query

// watchLatencyGroup is how many consecutive steps one latency sample of
// the watch workload averages. A single step is either a near no-op (the
// mutation touched nothing the standing query reaches) or a full
// re-derivation, about half each, so the median of single steps sits on
// the cliff between the two modes and moves 20 % with the web's seed.
const watchLatencyGroup = 10

// roundStats is what one round measured.
type roundStats struct {
	use usage
	lat []float64 // ms
}

// runner measures one workload.
type runner struct {
	spec *workloadSpec
	cfg  runConfig

	webSeed      int64
	src          string
	pages, sites int

	// What a query workload's set-up leaves for its rounds.
	oracle   rowSet
	storeDir string

	setupS    []float64
	rounds    []roundStats
	attempted int
	failed    int
	firstFail string

	heapLive  float64
	schedules int
	queuePeak int // deepest clone queue any deployment saw
	// standingMin is the smallest standing set any schedule ended with
	// (the selftest holds it above a floor: a schedule that has cut most
	// of the tree off measures no-ops).
	standingMin int

	watchMutate   time.Duration
	watchMaintain time.Duration
	wall          time.Duration // spent on this workload: set-up, rounds, layers
}

func newRunner(spec *workloadSpec, cfg runConfig) *runner {
	return &runner{spec: spec, cfg: cfg}
}

func (r *runner) fail(format string, args ...any) {
	if r.firstFail == "" {
		r.firstFail = fmt.Sprintf(format, args...)
	}
}

// watchWebSeed stands in for -seed when the watch's web is chosen: like
// its mutation seeds (see watchMutationSeeds) the standing query's web is
// fixed, because which pages carry the marker decides which edits flip a
// row, and that alone moved every per-step count by over 1 % between
// seeds — too close to their 2 % bound.
const watchWebSeed = 7

// chooseWeb fixes the generator seed: the first seed at or after
// Seed*1000 whose web has the wanted number of marker pages. The search
// is input generation, not set-up, and is not timed.
func (r *runner) chooseWeb() error {
	s := r.spec
	if s.Tree == nil {
		return nil
	}
	seed := r.cfg.Seed
	if r.isWatch() {
		seed = watchWebSeed
	}
	base := seed * 1000
	for k := int64(0); k < 1000; k++ {
		if n := treeWeb(*s.Tree, base+k).markerPages(); s.Markers[0] <= n && n <= s.Markers[1] {
			r.webSeed = base + k
			return nil
		}
	}
	return fmt.Errorf("%s: no generator seed in [%d, %d) yields %v marker pages", s.Name, base, base+1000, s.Markers)
}

func (r *runner) newWeb() *web {
	if r.spec.Tree == nil {
		return campusWeb()
	}
	return treeWeb(*r.spec.Tree, r.webSeed)
}

func (r *runner) query(w *web) string {
	if r.spec.Tree == nil {
		return campusQuery
	}
	return markerQuery(w, r.spec.Cols, r.spec.PRE, r.spec.Extra)
}

func (r *runner) isWatch() bool { return r.spec.WatchSteps > 0 }

// setup prepares the workload and books setup_s. A query workload sets
// up several times, keeping the oracle answer and (for the store
// workload) the last set-up's stores; every round then deploys afresh.
// The watch sets up for every schedule, inside its rounds.
func (r *runner) setup() error {
	if err := r.chooseWeb(); err != nil {
		return err
	}
	w := r.newWeb()
	r.src, r.pages, r.sites = r.query(w), w.pages(), w.sites()
	if r.isWatch() {
		return nil
	}
	// Cheap set-ups are repeated more often: setup_s is the median of
	// at least SetupReps set-ups and of as many more as fit setupBudget.
	var spent time.Duration
	for i := 0; i < r.cfg.SetupReps || (spent < setupBudget && i < maxSetupReps && !r.cfg.Smoke); i++ {
		r.removeStores()
		t0 := time.Now()
		dep, err := r.setupOnce()
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", r.spec.Name, err)
		}
		spent += time.Since(t0)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		dep.close()
	}
	return nil
}

const (
	setupBudget  = 2 * time.Second
	maxSetupReps = 40
)

// setupOnce is what setup_s times: web generation, the oracle run, the
// store build, the deployment and the warm-up ops.
func (r *runner) setupOnce() (*deployment, error) {
	w := r.newWeb()
	oracle, err := oracleRows(w, r.src)
	if err != nil {
		return nil, err
	}
	if oracle.N == 0 {
		return nil, fmt.Errorf("degenerate workload: the oracle answer is empty")
	}
	r.oracle = oracle
	if r.spec.Store {
		if r.storeDir, err = r.scratchDir("store"); err != nil {
			return nil, err
		}
		if err := buildStores(r.storeDir, w, w.hosts()); err != nil {
			return nil, err
		}
	}
	return r.deployWarm()
}

// deployWarm starts the workload's deployment on a fresh copy of its web
// and runs the warm-up ops, so caches are full before anything is timed.
// The store workload deploys on a copy that was never rendered: whatever
// it serves came off disk.
func (r *runner) deployWarm() (*deployment, error) {
	opts := r.spec.Deploy
	if r.spec.Store {
		opts.StoreDir, opts.PoolPages = r.storeDir, storePoolPages
	}
	w := r.newWeb()
	dep, err := deploy(w, opts)
	if err != nil {
		return nil, err
	}
	if c := dep.counters(); r.spec.Store && (c[cColdOpens] != int64(w.sites()) || c[cDocsParsed] != 0) {
		dep.close()
		return nil, fmt.Errorf("store deployment cold-opened %d of %d stores and parsed %d documents, want all and none",
			c[cColdOpens], w.sites(), c[cDocsParsed])
	}
	for i := 0; i < r.cfg.WarmOps; i++ {
		rows, err := dep.runQuery(r.src)
		if err == nil && rows != r.oracle {
			err = fmt.Errorf("%d rows that differ from the oracle's %d", rows.N, r.oracle.N)
		}
		if err != nil {
			dep.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return dep, nil
}

func (r *runner) removeStores() {
	if r.storeDir != "" {
		os.RemoveAll(r.storeDir)
		r.storeDir = ""
	}
}

// close releases the workload's scratch files.
func (r *runner) close() { r.removeStores() }

// clocked runs one phase of the workload and books its wall time.
func (r *runner) clocked(phase func() error) error {
	t0 := time.Now()
	defer func() { r.wall += time.Since(t0) }()
	return phase()
}

// stopFn decides when a round ends, given the ops done (cycles for the
// watch) and the time spent in it.
type stopFn func(done int, elapsed time.Duration) bool

func fixedOps(n int) stopFn { return func(done int, _ time.Duration) bool { return done >= n } }

// forDuration ends a round at the op boundary nearest to d.
func forDuration(d time.Duration) stopFn {
	return func(done int, elapsed time.Duration) bool {
		return done > 0 && elapsed+elapsed/time.Duration(2*done) >= d
	}
}

// round runs one round and books it.
func (r *runner) round(stop stopFn) error {
	if r.isWatch() {
		return r.watchRound(stop)
	}
	return r.queryRound(stop)
}

// queryRound measures one round on a deployment of its own. A deployment
// slows as it ages — every query leaves log-table entries and pooled
// connections behind — so rounds that shared one would sample five
// different systems; fresh ones sample the same system five times, and a
// round the machine disturbed can be told from the rest.
func (r *runner) queryRound(stop stopFn) error {
	first := len(r.rounds) == 0
	var heapBase float64
	if first {
		heapBase = heapMiB() // before the round's web exists
	}
	dep, err := r.deployWarm()
	if err != nil {
		return fmt.Errorf("%s: %w", r.spec.Name, err)
	}
	defer dep.close()

	var rs roundStats
	start := time.Now()
	p0 := readUsage(dep)
	var busy time.Duration
	ops := 0
	for done := 0; !stop(done, time.Since(start)); done++ {
		t0 := time.Now()
		rows, err := dep.runQuery(r.src)
		lat := time.Since(t0)
		busy += lat
		ops++
		rs.lat = append(rs.lat, ms(lat))
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			r.fail("%s op %d: %v", r.spec.Name, r.attempted, err)
		case rows != r.oracle:
			r.failed++
			r.fail("%s op %d: %d rows differ from the oracle's %d", r.spec.Name, r.attempted, rows.N, r.oracle.N)
		}
		if first && done+1 == r.spec.HeapOps {
			// The heap is read at a fixed op count, between two segments.
			rs.use.add(p0, readUsage(dep), ops, busy)
			ops, busy = 0, 0
			r.heapLive, first = heapMiB()-heapBase, false
			p0 = readUsage(dep)
		}
	}
	rs.use.add(p0, readUsage(dep), ops, busy)
	if first { // a round shorter than HeapOps (smoke scale)
		r.heapLive = heapMiB() - heapBase
	}
	r.queuePeak = max(r.queuePeak, dep.queuePeak())
	r.rounds = append(r.rounds, rs)
	return nil
}

// watchMutationSeeds are the mutation schedules one cycle of the watch
// workload runs, each on a fresh deployment. They do not follow -seed:
// under the default op mix a schedule's cost per step varies fourfold
// with its seed — rewires cut subtrees off, after which edits there are
// no-ops — so the mean over any affordable number of seed-drawn
// schedules would move by several per cent from seed to seed, and no
// per-op count could hold a 2 % bound.
var watchMutationSeeds = []int64{2, 4, 7, 8, 9, 11, 13, 14}

// watchRound runs whole cycles of the mutation schedules; stop is asked
// at cycle boundaries, so every round measures the same mix of steps.
func (r *runner) watchRound(stop stopFn) error {
	seeds := watchMutationSeeds
	if r.cfg.Smoke {
		seeds = seeds[:2]
	}
	var rs roundStats
	start := time.Now()
	for done := 0; !stop(done, time.Since(start)); done++ {
		for _, seed := range seeds {
			if err := r.watchSchedule(&rs, seed); err != nil {
				return err
			}
		}
	}
	r.rounds = append(r.rounds, rs)
	return nil
}

// watchSchedule runs WatchSteps mutation steps against a standing query
// on a fresh deployment.
func (r *runner) watchSchedule(rs *roundStats, mutationSeed int64) error {
	r.schedules++
	readHeap := r.schedules == r.spec.HeapOps
	var base float64
	if readHeap {
		base = heapMiB()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	t0 := time.Now()
	dep, err := deploy(r.newWeb(), deployOpts{MutationSeed: mutationSeed})
	if err != nil {
		return err
	}
	defer dep.close()
	st, err := dep.watch(ctx, r.src)
	if err != nil {
		return fmt.Errorf("%s: registering the standing query: %w", r.spec.Name, err)
	}
	defer st.close()
	agrees := func() (bool, error) {
		rows, err := dep.runQuery(r.src)
		if err != nil {
			return false, fmt.Errorf("%s: oracle re-run: %w", r.spec.Name, err)
		}
		return rows == st.rows(), nil
	}
	ok, err := agrees()
	if err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	if !ok {
		r.attempted++
		r.failed++
		r.fail("%s schedule %d: the standing query's baseline differs from a full run", r.spec.Name, r.schedules)
	}

	epoch := 0
	for step := 0; step < r.spec.WatchSteps; {
		seg := min(watchCompareEvery, r.spec.WatchSteps-step)
		p0 := readUsage(dep)
		var busy, group time.Duration
		stepFailed := 0
		for i := 0; i < seg; i++ {
			t0 := time.Now()
			n, applied := dep.mutate()
			t1 := time.Now()
			epoch += n
			err := st.waitEpoch(ctx, epoch)
			t2 := time.Now()
			r.watchMutate += t1.Sub(t0)
			r.watchMaintain += t2.Sub(t1)
			busy += t2.Sub(t0)
			group += t2.Sub(t0)
			if (i+1)%watchLatencyGroup == 0 {
				rs.lat = append(rs.lat, ms(group)/watchLatencyGroup)
				group = 0
			}
			if !applied || err != nil {
				stepFailed++
				r.fail("%s schedule %d step %d: applied=%v err=%v", r.spec.Name, r.schedules, step+i, applied, err)
			}
		}
		rs.use.add(p0, readUsage(dep), seg, busy)
		step += seg
		r.attempted += seg
		// A divergence fails every step since the last passing compare.
		same, err := agrees()
		if err != nil {
			return err
		}
		if !same {
			stepFailed = seg
			r.fail("%s schedule %d: the standing set diverged from a full run by step %d", r.spec.Name, r.schedules, step)
		}
		r.failed += stepFailed
	}
	if n := st.rows().N; r.schedules == 1 || n < r.standingMin {
		r.standingMin = n
	}
	r.queuePeak = max(r.queuePeak, dep.queuePeak())
	if readHeap {
		r.heapLive = heapMiB() - base
	}
	return nil
}

// scratchDir returns a fresh directory under the run's output directory.
func (r *runner) scratchDir(name string) (string, error) {
	return os.MkdirTemp(r.cfg.OutDir, name+"-"+r.spec.Name+"-")
}

func traceFile(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}
