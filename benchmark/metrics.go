package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds for the driver; the
// selftest holds the two in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the old median by which it may worsen
}

// endToEnd are the figures a user of the system sees, reported for every
// workload. failed_ops_frac is reported beside them but is not in
// BENCHMARK.json: it is 0 on a healthy run, and the driver reads the
// failure count from the result line's own keys.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"wire_bytes_per_op", "B", "lower", 0.02},
	{"wire_msgs_per_op", "1", "lower", 0.02},
	{"allocs_per_op", "1", "lower", 0.02},
	{"alloc_kb_per_op", "KB", "lower", 0.02},
	{"heap_live_mib", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

const failedOpsFrac = "failed_ops_frac"

// timingMetrics are taken from the kept (fastest) rounds only; see
// keptRounds.
var timingMetrics = map[string]bool{
	"latency_p50_ms": true, "latency_p95_ms": true, "ops_per_s": true, "cpu_ms_per_op": true,
}

// endToEndReported is what a result file and the printed table carry.
var endToEndReported = append(endToEnd[:len(endToEnd):len(endToEnd)],
	metricDef{Name: failedOpsFrac, Unit: "1", Better: "lower"})

// setupSlackS is the absolute part of setup_s's regression rule in
// -compare: worse by more than its bound and by more than this.
const setupSlackS = 0.2

// perLayer are the single-layer figures; they carry no bound.
var perLayer = []metricDef{
	// Probes: the layer's public entry point timed on the workload's inputs.
	{Name: "disql.parse_us", Unit: "us", Better: "lower"},
	{Name: "nodeproc.parse_stages_us", Unit: "us", Better: "lower"},
	{Name: "htmlx.parse_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "htmlx.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "htmlx.allocs_per_doc", Unit: "1", Better: "lower"},
	{Name: "relmodel.build_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "plan.eval_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "plan.allocs_per_eval", Unit: "1", Better: "lower"},
	{Name: "plan.rows_scanned_per_row", Unit: "1", Better: "lower"},
	{Name: "nodeproc.step_us_per_node", Unit: "us", Better: "lower"},
	{Name: "nodeproc.logtable_check_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.clone_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "wire.result_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "wire.clone_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.result_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "wire.allocs_per_frame", Unit: "1", Better: "lower"},
	{Name: "netsim.pipe_send_us", Unit: "us", Better: "lower"},
	{Name: "netsim.tcp_send_us", Unit: "us", Better: "lower"},
	{Name: "netsim.tcp_dial_us", Unit: "us", Better: "lower"},
	{Name: "sched.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "store.db_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "store.pages_read_per_doc", Unit: "1", Better: "lower"},
	{Name: "store.pages_evicted_per_doc", Unit: "1", Better: "lower"},
	{Name: "store.index_hits_per_doc", Unit: "1", Better: "higher"},
	{Name: "store.open_ms_per_site", Unit: "ms", Better: "lower"},
	{Name: "store.build_ms_per_site", Unit: "ms", Better: "lower"},
	{Name: "store.disk_bytes_per_doc_byte", Unit: "1", Better: "lower"},
	{Name: "webgraph.mutate_us_per_step", Unit: "us", Better: "lower"},
	// In-situ counts: counter deltas over the timed run per operation.
	{Name: "server.clones_per_op", Unit: "1", Better: "lower"},
	{Name: "server.result_msgs_per_op", Unit: "1", Better: "lower"},
	{Name: "server.docs_parsed_per_op", Unit: "1", Better: "lower"},
	{Name: "server.db_cache_hit_ratio", Unit: "1", Better: "higher"},
	{Name: "server.evaluations_per_op", Unit: "1", Better: "lower"},
	{Name: "server.dup_arrival_ratio", Unit: "1", Better: "lower"},
	{Name: "server.queue_high_water", Unit: "1", Better: "lower"},
	{Name: "plan.rows_scanned_per_op", Unit: "1", Better: "lower"},
	{Name: "plan.rows_emitted_per_op", Unit: "1", Better: "lower"},
	{Name: "store.pages_read_per_op", Unit: "1", Better: "lower"},
	{Name: "store.pages_evicted_per_op", Unit: "1", Better: "lower"},
	{Name: "store.index_hits_per_op", Unit: "1", Better: "higher"},
	{Name: "netsim.dials_per_op", Unit: "1", Better: "lower"},
	{Name: "netsim.conn_reuse_ratio", Unit: "1", Better: "higher"},
	{Name: "runtime.gc_cpu_frac", Unit: "1", Better: "lower"},
	{Name: "watch.mutate_us_per_step", Unit: "us", Better: "lower"},
	{Name: "watch.maintain_us_per_step", Unit: "us", Better: "lower"},
	{Name: "watch.deltas_per_step", Unit: "1", Better: "lower"},
	// Traced pass: the harness's spans and the journals' clone spans.
	{Name: "trace.spans_per_op", Unit: "1", Better: "lower"},
	{Name: "trace.hop_transit_us_p50", Unit: "us", Better: "lower"},
	{Name: "trace.hop_transit_us_p95", Unit: "us", Better: "lower"},
	{Name: "trace.site_service_us_p50", Unit: "us", Better: "lower"},
	{Name: "trace.site_service_us_p95", Unit: "us", Better: "lower"},
	{Name: "trace.critical_path_hops", Unit: "1", Better: "lower"},
	{Name: "trace.critical_path_transit_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.critical_path_service_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.client_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.submit_us", Unit: "us", Better: "lower"},
	{Name: "client.results_us", Unit: "us", Better: "lower"},
	{Name: "trace.journal_dropped", Unit: "1", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "1", Better: "lower"},
	// Attribution: in-situ count × probe unit cost, and what is left.
	{Name: "attr.htmlx_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "attr.plan_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "attr.wire_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "attr.netsim_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "attr.sched_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "attr.store_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "attr.residual_ms_per_op", Unit: "ms", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a definition list, so a value can
// only be reported under a declared name and with its declared unit.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

func (m *metricSet) get(name string) float64 { return m.values[name].Value }

// complete fills every declared metric the workload did not produce with
// zero, so each workload reports the full list.
func (m *metricSet) complete() map[string]metricValue {
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			m.values[d.Name] = metricValue{Unit: d.Unit}
		}
	}
	return m.values
}
