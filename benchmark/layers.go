package main

import (
	"fmt"
	"runtime"
	"time"
)

// probeReps is how many repetitions a probe's figure is the median of.
const probeReps = 5

// probeOut is a probe's median cost per unit of work: the time the
// calls took, and the CPU the process spent meanwhile — which adds what
// the calls cause off their own goroutine, the collector marking what
// they allocated and the peer goroutine of a connection. Latency is made
// of the first, cpu_ms_per_op of the second.
type probeOut struct {
	perUnit time.Duration
	cpu     time.Duration
	allocs  float64 // heap allocations per unit
	units   int     // units processed over all repetitions
}

func (p probeOut) us() float64 { return float64(p.perUnit) / float64(time.Microsecond) }
func (p probeOut) ns() float64 { return float64(p.perUnit) }

// cpuMS is the CPU cost of one unit in milliseconds, the attribution's
// unit price.
func (p probeOut) cpuMS() float64 { return ms(p.cpu) }

// probeDocs is how many pages of the workload's web the per-document
// probes run over; probeSites how many sites the store probes build.
const (
	probeDocs  = 40
	probeSites = 4
)

// layers measures the per-layer metrics of the workload: the probes, the
// in-situ counts of the timed rounds already run, the traced pass, and
// the attribution that multiplies the first two. slice is the measured
// time each probe repetition gets.
func (r *runner) layers(slice time.Duration, tracedOps int) (map[string]metricValue, []span, error) {
	m := newMetricSet(perLayer)
	total := r.totalUsage()
	if total.Ops == 0 {
		return nil, nil, fmt.Errorf("%s: per-layer metrics need a timed run first", r.spec.Name)
	}
	prices, err := r.probes(m, slice)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: probes: %w", r.spec.Name, err)
	}
	r.inSitu(m, total)
	spans, err := r.tracedPass(m, tracedOps)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: traced pass: %w", r.spec.Name, err)
	}
	r.attribute(m, total, prices)
	return m.complete(), spans, nil
}

func (r *runner) totalUsage() usage {
	var t usage
	for _, rs := range r.rounds {
		t.merge(rs.use)
	}
	return t
}

// prober runs probes until the first one fails.
type prober struct {
	slice time.Duration // measured time each repetition gets
	reps  int
	err   error
}

// run repeats fn for slice of measured time in each of reps repetitions
// and returns the median repetition.
func (p *prober) run(fn probeFn) probeOut {
	if p.err != nil {
		return probeOut{}
	}
	var per, cpu, allocs []float64
	total := 0
	for rep := 0; rep < p.reps; rep++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		var units int
		var elapsed time.Duration
		for units == 0 || elapsed < p.slice {
			u, e, err := fn()
			if err != nil {
				p.err = err
				return probeOut{}
			}
			units += u
			elapsed += e
		}
		cpu = append(cpu, float64(cpuTime()-cpu0)/float64(units))
		runtime.ReadMemStats(&ms1)
		total += units
		per = append(per, float64(elapsed)/float64(units))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(units))
	}
	return probeOut{
		perUnit: time.Duration(median(per)), cpu: time.Duration(median(cpu)),
		allocs: median(allocs), units: total,
	}
}

// probes times each layer's public entry point on inputs taken from the
// workload: its pages, its parsed query, and messages built from them.
func (r *runner) probes(m *metricSet, slice time.Duration) (unitPrices, error) {
	var up unitPrices
	p := &prober{slice: slice, reps: r.cfg.ProbeReps}
	w := r.newWeb() // a copy of the workload's web that is free to render
	in, err := newLayerInputs(w, r.src, probeDocs)
	if err != nil {
		return up, err
	}

	m.set("disql.parse_us", p.run(probeDisqlParse(r.src)).us())
	m.set("nodeproc.parse_stages_us", p.run(in.probeParseStages()).us())
	parse := p.run(in.probeHTMLParse())
	m.set("htmlx.parse_us_per_doc", parse.us())
	m.set("htmlx.allocs_per_doc", parse.allocs)
	if parse.perUnit > 0 {
		bytesPerDoc := float64(in.bytes) / float64(len(in.urls))
		m.set("htmlx.parse_mb_per_s", bytesPerDoc/1e6/parse.perUnit.Seconds())
	}
	build := p.run(in.probeRelmodelBuild())
	m.set("relmodel.build_us_per_doc", build.us())
	up.docLoad = parse.cpuMS() + build.cpuMS()

	dir, err := r.scratchDir("probe")
	if err != nil {
		return up, err
	}
	sb, err := newStoreBench(dir, w, probeSites, storePoolPages)
	if err != nil {
		return up, err
	}
	defer sb.close()
	read0, evict0 := sb.ctr.PagesRead.Load(), sb.ctr.PagesEvicted.Load()
	dbLoad := p.run(sb.probeDB())
	m.set("store.db_us_per_doc", dbLoad.us())
	up.storeDB = dbLoad.cpuMS()
	m.set("store.pages_read_per_doc", ratio(float64(sb.ctr.PagesRead.Load()-read0), float64(dbLoad.units)))
	m.set("store.pages_evicted_per_doc", ratio(float64(sb.ctr.PagesEvicted.Load()-evict0), float64(dbLoad.units)))
	m.set("store.open_ms_per_site", p.run(sb.probeOpen()).us()/1e3)
	m.set("store.build_ms_per_site", p.run(sb.probeBuild()).us()/1e3)
	m.set("store.disk_bytes_per_doc_byte", ratio(float64(sb.diskBytes), float64(sb.docBytes)))
	var scanned, emitted int64
	hits0 := sb.ctr.IndexHits.Load()
	if err := in.evalAll(sb.dbs, &scanned, &emitted); err != nil {
		return up, err
	}
	m.set("store.index_hits_per_doc", ratio(float64(sb.ctr.IndexHits.Load()-hits0), float64(len(sb.dbs))))

	// On the store workload plan.Eval runs over store-backed databases
	// carrying the text oracle, as it does in situ.
	evalDBs := in.dbs
	if r.spec.Store {
		evalDBs = sb.dbs
	}
	scanned, emitted = 0, 0
	eval := p.run(in.probePlanEval(evalDBs, &scanned, &emitted))
	m.set("plan.eval_us_per_doc", eval.us())
	up.eval = eval.cpuMS()
	m.set("plan.allocs_per_eval", eval.allocs)
	m.set("plan.rows_scanned_per_row", ratio(float64(scanned), float64(emitted)))
	m.set("nodeproc.step_us_per_node", p.run(in.probeStep()).us())
	m.set("nodeproc.logtable_check_ns", p.run(in.probeLogTable()).ns())

	rowsPerResult := max(1, r.oracle.N/w.sites())
	clone, result := in.wireMessages(rowsPerResult)
	_, bare := in.wireMessages(0)
	cloneRT, cloneBytes, err := probeWireRoundtrip(clone)
	if err != nil {
		return up, err
	}
	resultRT, resultBytes, err := probeWireRoundtrip(result)
	if err != nil {
		return up, err
	}
	_, bareBytes, err := probeWireRoundtrip(bare)
	if err != nil {
		return up, err
	}
	cloneOut, resultOut := p.run(cloneRT), p.run(resultRT)
	up.cloneRT, up.resultRT = cloneOut.cpuMS(), resultOut.cpuMS()
	m.set("wire.clone_roundtrip_us", cloneOut.us())
	m.set("wire.result_roundtrip_us", resultOut.us())
	m.set("wire.clone_frame_bytes", cloneBytes)
	m.set("wire.result_bytes_per_row", (resultBytes-bareBytes)/float64(rowsPerResult))
	m.set("wire.allocs_per_frame", cloneOut.allocs)

	pipe, err := newSendBench(false)
	if err != nil {
		return up, err
	}
	defer pipe.close()
	pipeSend := p.run(pipe.probeSend())
	m.set("netsim.pipe_send_us", pipeSend.us())
	tcp, err := newSendBench(true)
	if err != nil {
		return up, err
	}
	defer tcp.close()
	tcpSend, dial := p.run(tcp.probeSend()), p.run(tcp.probeDial())
	m.set("netsim.tcp_send_us", tcpSend.us())
	m.set("netsim.tcp_dial_us", dial.us())
	up.send = pipeSend.cpuMS()
	if r.spec.Deploy.TCP {
		up.send, up.dial = tcpSend.cpuMS(), dial.cpuMS()
	}

	queue := p.run(probeSched())
	m.set("sched.push_pop_ns", queue.ns())
	up.queue = queue.cpuMS()
	m.set("webgraph.mutate_us_per_step", p.run(probeMutate(r.newWeb, r.cfg.Seed)).us())
	return up, p.err
}

// inSitu turns the counter deltas of the timed rounds into per-op counts.
func (r *runner) inSitu(m *metricSet, t usage) {
	ops := float64(t.Ops)
	per := func(i int) float64 { return float64(t.Ctr[i]) / ops }
	m.set("server.clones_per_op", per(cCloneMsgs))
	m.set("server.result_msgs_per_op", per(cResultMsgs))
	m.set("server.docs_parsed_per_op", per(cDocsParsed))
	m.set("server.db_cache_hit_ratio", ratio(float64(t.Ctr[cDBCacheHits]), float64(t.Ctr[cDBCacheHits]+t.Ctr[cDocsParsed])))
	m.set("server.evaluations_per_op", per(cEvaluations))
	arrivals := t.Ctr[cEvaluations] + t.Ctr[cPureRoutes] + t.Ctr[cDupDropped]
	m.set("server.dup_arrival_ratio", ratio(float64(t.Ctr[cDupDropped]), float64(arrivals)))
	m.set("server.queue_high_water", float64(r.queuePeak))
	m.set("plan.rows_scanned_per_op", per(cRowsScanned))
	m.set("plan.rows_emitted_per_op", per(cRowsEmitted))
	m.set("store.pages_read_per_op", per(cPagesRead))
	m.set("store.pages_evicted_per_op", per(cPagesEvicted))
	m.set("store.index_hits_per_op", per(cIndexHits))
	m.set("netsim.dials_per_op", per(cDials))
	m.set("netsim.conn_reuse_ratio", ratio(float64(t.Ctr[cConnReused]), float64(t.Ctr[cConnReused]+t.Ctr[cConnDialed])))
	m.set("runtime.gc_cpu_frac", ratio(t.GCCPU, t.AllCPU))
	if r.isWatch() {
		m.set("watch.mutate_us_per_step", us(r.watchMutate)/ops)
		m.set("watch.maintain_us_per_step", us(r.watchMaintain)/ops)
		m.set("watch.deltas_per_step", per(cDeltasSent))
	}
}

// unitPrices are the CPU milliseconds one unit of each layer's work
// costs, as the probes measured them on this workload's inputs.
type unitPrices struct {
	docLoad  float64 // parse one document and build its relations
	eval     float64 // one node-query evaluation
	cloneRT  float64 // encode + decode one clone frame
	resultRT float64 // encode + decode one result frame
	send     float64 // one frame over the workload's transport
	dial     float64 // one fresh connection (TCP only; the pipe's is free)
	queue    float64 // one clone through the site queue
	storeDB  float64 // one database assembled from heap pages
}

// attribute prices the in-situ counts with the probes' unit costs. What
// the six layers do not explain is the residual: the server and client
// protocol code between them and the goroutine hand-offs.
func (r *runner) attribute(m *metricSet, t usage, up unitPrices) {
	ops := float64(t.Ops)
	visits := float64(t.Ctr[cEvaluations]+t.Ctr[cPureRoutes]) / ops
	htmlx := m.get("server.docs_parsed_per_op") * up.docLoad
	plan := m.get("server.evaluations_per_op") * up.eval
	wire := m.get("server.clones_per_op")*up.cloneRT + m.get("server.result_msgs_per_op")*up.resultRT
	netsim := float64(t.Ctr[cWireMsgs])/ops*up.send + m.get("netsim.dials_per_op")*up.dial
	sched := m.get("server.clones_per_op") * up.queue
	store := 0.0
	if r.spec.Store {
		store = visits * up.storeDB
	}
	m.set("attr.htmlx_ms_per_op", htmlx)
	m.set("attr.plan_ms_per_op", plan)
	m.set("attr.wire_ms_per_op", wire)
	m.set("attr.netsim_ms_per_op", netsim)
	m.set("attr.sched_ms_per_op", sched)
	m.set("attr.store_ms_per_op", store)
	m.set("attr.residual_ms_per_op", ms(t.CPU)/ops-(htmlx+plan+wire+netsim+sched+store))
}
