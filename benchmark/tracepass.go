package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracedOut is what a traced pass gathers.
type tracedOut struct {
	spans         []span
	traced, plain []float64 // op latencies with and without tracing, ms
	dropped       int64     // journal events lost
}

// tracedPass runs ops operations on a pipe-fabric deployment with
// tracing on, alternating with the same operations on an untraced twin
// so the overhead compares like with like. End-to-end metrics are never
// taken from it. It returns the spans for the trace file.
func (r *runner) tracedPass(m *metricSet, ops int) ([]span, error) {
	pass := r.tracedQueries
	if r.isWatch() {
		pass = r.tracedWatch
	}
	out, err := pass(ops)
	if err != nil {
		return nil, err
	}
	analyse(m, out.spans, len(out.traced))
	m.set("trace.journal_dropped", float64(out.dropped))
	m.set("trace.overhead_frac", ratio(median(out.traced), median(out.plain))-1)
	return out.spans, nil
}

func (r *runner) tracedQueries(ops int) (*tracedOut, error) {
	opts := r.spec.Deploy
	opts.TCP = false
	if r.spec.Store {
		opts.StoreDir, opts.PoolPages = r.storeDir, storePoolPages
	}
	twin, err := deploy(r.newWeb(), opts)
	if err != nil {
		return nil, err
	}
	defer twin.close()
	opts.Trace = true
	dep, err := deploy(r.newWeb(), opts)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	for i := 0; i < r.cfg.WarmOps; i++ {
		if _, _, err := dep.tracedQuery(-1, r.src); err != nil {
			return nil, err
		}
		if _, err := twin.runQuery(r.src); err != nil {
			return nil, err
		}
	}
	out := &tracedOut{}
	for op := 0; op < ops; op++ {
		t0 := time.Now()
		rows, err := twin.runQuery(r.src)
		out.plain = append(out.plain, ms(time.Since(t0)))
		if err != nil || rows != r.oracle {
			return nil, fmt.Errorf("untraced op %d failed (%v) or differs from the oracle", op, err)
		}
		s, rows, err := dep.tracedQuery(op, r.src)
		if err != nil || rows != r.oracle {
			return nil, fmt.Errorf("traced op %d failed (%v) or differs from the oracle", op, err)
		}
		// The op span, not the call: reading the journals back is the
		// harness's work, not the engine's.
		out.traced = append(out.traced, (s[0].EndUS-s[0].StartUS)/1e3)
		out.spans = append(out.spans, s...)
	}
	out.dropped = dep.journalDropped()
	return out, nil
}

// tracedWatch traces the first steps of one mutation schedule, then
// replays the same schedule untraced.
func (r *runner) tracedWatch(steps int) (*tracedOut, error) {
	out := &tracedOut{}
	for _, trace := range []bool{true, false} {
		if err := r.tracedSchedule(out, steps, trace); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *runner) tracedSchedule(out *tracedOut, steps int, trace bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	dep, err := deploy(r.newWeb(), deployOpts{MutationSeed: watchMutationSeeds[0], Trace: trace})
	if err != nil {
		return err
	}
	defer dep.close()
	st, err := dep.watch(ctx, r.src)
	if err != nil {
		return err
	}
	defer st.close()
	if trace {
		dep.flushCloneSpans(-1, "") // the baseline run's spans are not a step's
	}
	epoch := 0
	for op := 0; op < steps; op++ {
		t0 := traceNowUS()
		n, applied := dep.mutate()
		t1 := traceNowUS()
		epoch += n
		err := st.waitEpoch(ctx, epoch)
		t2 := traceNowUS()
		if !applied || err != nil {
			return fmt.Errorf("step %d: applied=%v err=%v", op, applied, err)
		}
		if !trace {
			out.plain = append(out.plain, (t2-t0)/1e3)
			continue
		}
		out.traced = append(out.traced, (t2-t0)/1e3)
		root := fmt.Sprintf("op%d", op)
		id := fmt.Sprintf("step#%d", op)
		out.spans = append(out.spans,
			span{Op: op, Query: id, ID: root, Name: "op", StartUS: t0, EndUS: t2},
			span{Op: op, Query: id, ID: root + "/mutate", Parent: root, Name: "watch.mutate", StartUS: t0, EndUS: t1},
			span{Op: op, Query: id, ID: root + "/wait", Parent: root, Name: "watch.maintain", StartUS: t1, EndUS: t2})
		out.spans = append(out.spans, dep.flushCloneSpans(op, root+"/wait")...)
	}
	if trace {
		out.dropped = dep.journalDropped()
	}
	return nil
}

// analyse derives the trace metrics from the spans of ops operations.
//
// A clone span runs from the moment its sender shipped it to the last
// event its processing site journaled for it: transit (encode, transport,
// decode, queue wait) up to its arrival, service (document load, step,
// forwarding children, result send) after. An operation's blocking chain
// ends at the clone that finished last and follows parents up to a root
// clone; along it a site's self time is its service up to the moment it
// shipped the next clone of the chain — what its child span covers is
// the child's.
func analyse(m *metricSet, spans []span, ops int) {
	byOp := map[int][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	var transit, service []float64
	var hops, pathTransit, pathService, tail, submit, results []float64
	for _, op := range byOp {
		clones := map[string]span{}
		var last *span
		var waitEnd float64
		for i, s := range op {
			switch s.Name {
			case "clone":
				clones[s.ID] = s
				transit = append(transit, s.ArriveUS-s.StartUS)
				service = append(service, s.EndUS-s.ArriveUS)
				if last == nil || s.EndUS > last.EndUS {
					last = &op[i]
				}
			case "client.submit":
				submit = append(submit, s.EndUS-s.StartUS)
			case "client.results":
				results = append(results, s.EndUS-s.StartUS)
			case "client.wait", "watch.maintain":
				waitEnd = s.EndUS
			}
		}
		if last == nil {
			continue // a watch step that needed no re-derivation
		}
		tail = append(tail, waitEnd-last.EndUS)
		n, tr, sv := 0, 0.0, last.EndUS-last.ArriveUS
		for cur := *last; ; {
			n++
			tr += cur.ArriveUS - cur.StartUS
			parent, ok := clones[cur.Parent]
			if !ok {
				break
			}
			sv += cur.StartUS - parent.ArriveUS
			cur = parent
		}
		hops = append(hops, float64(n))
		pathTransit = append(pathTransit, tr/1e3)
		pathService = append(pathService, sv/1e3)
	}
	m.set("trace.spans_per_op", ratio(float64(len(spans)), float64(ops)))
	m.set("trace.hop_transit_us_p50", percentile(transit, 50))
	m.set("trace.hop_transit_us_p95", percentile(transit, 95))
	m.set("trace.site_service_us_p50", percentile(service, 50))
	m.set("trace.site_service_us_p95", percentile(service, 95))
	m.set("trace.critical_path_hops", median(hops))
	m.set("trace.critical_path_transit_ms", median(pathTransit))
	m.set("trace.critical_path_service_ms", median(pathService))
	m.set("trace.client_tail_us", median(tail))
	m.set("client.submit_us", median(submit))
	m.set("client.results_us", median(results))
}

// traceDoc is the layout of benchmark/out/trace-<workload>.json.
type traceDoc struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	Clock    string `json:"clock"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed int64, ops int, spans []span) error {
	blob, err := json.Marshal(traceDoc{
		Workload: workload, Seed: seed, Ops: ops,
		Clock: "microseconds since the process's trace epoch",
		Spans: spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
