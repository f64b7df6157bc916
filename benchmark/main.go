// Command benchmark is the repository's one yardstick: five workloads,
// the end-to-end metrics a user of WEBDIS sees, and a per-layer breakdown
// of where each operation's cost goes. BENCHMARK.json at the repository
// root names it for the driver; README.md in this directory explains
// every workload and metric.
//
//	go run ./benchmark                       # full run: every workload, every metric
//	go run ./benchmark -smoke                # a few ops per workload, for the selftest
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -workload tree40-docs -seed 3 -seconds 10 -trace 0   # what the driver runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	fullRounds     = 5
	fullSetupReps  = 3
	warmOps        = 3
	fullTracedOps  = 50
	smokeTracedOps = 3
	fullProbeSlice = 100 * time.Millisecond // per repetition; a probe runs probeReps of them
	smokeSlice     = 500 * time.Microsecond
	// timedProbes is how many probes runProbe times per workload; with
	// -seconds the probe slice is sized so they fit the run.
	timedProbes = 17
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // -1: end-to-end and per-layer; 0: end-to-end only; 1: per-layer
	smoke    bool
	result   string
	outDir   string
	spec     string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five, rounds interleaved)")
	fs.Int64Var(&o.seed, "seed", 7, "offsets every generator and mutation seed")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure each workload for this long instead of for its fixed op counts")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics; with either, the last output line is the driver's JSON object")
	fs.BoolVar(&o.smoke, "smoke", false, "one round of a few ops per workload")
	fs.StringVar(&o.result, "o", "", "write the result file here (default <out>/result.json on a run of all workloads)")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files and scratch stores")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "metric bounds for -compare")
	compareMode := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(stdout, stderr, o.spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || o.trace < -1 || o.trace > 1 || o.seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments")
		fs.Usage()
		return 2
	}
	// One tree query keeps more than one core busy; on a single-CPU box a
	// second scheduling slot lets the netpoller field socket readiness
	// while a query processor runs (same reason as cmd/webdis-bench).
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	br, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printResult(stdout, br)
	failed := false
	for _, wr := range br.Workloads {
		failed = failed || wr.Failed > 0
	}
	if o.result == "" && o.workload == "" {
		o.result = filepath.Join(o.outDir, "result.json")
	}
	if o.result != "" {
		if err := writeJSON(o.result, br); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, "\nresult written to", o.result)
	}
	if failed {
		fmt.Fprintln(stderr, "benchmark: operations failed; the figures above are not a valid measurement")
		return 1
	}
	if o.trace >= 0 {
		return printDriverLine(stdout, stderr, br, o.trace)
	}
	return 0
}

// measure runs the selected workloads and returns their results.
func measure(o options, progress io.Writer) (*benchResult, error) {
	specs := workloads
	if o.workload != "" {
		spec := findWorkload(o.workload)
		if spec == nil {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []*workloadSpec{spec}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	cfg := runConfig{Seed: o.seed, Smoke: o.smoke, SetupReps: fullSetupReps, WarmOps: warmOps, ProbeReps: probeReps, OutDir: o.outDir}
	rounds, tracedOps, slice := fullRounds, fullTracedOps, fullProbeSlice
	mode := "full"
	if o.smoke {
		cfg.SetupReps, cfg.WarmOps, cfg.ProbeReps = 1, 1, 1
		rounds, tracedOps, slice = 1, smokeTracedOps, smokeSlice
		mode = "smoke"
	}
	// With -seconds the budget is split: end-to-end runs spend all of it in
	// the timed rounds; a per-layer run needs the rounds only for its
	// in-situ counts and gives most of the time to the traced pass and
	// the probes.
	timed := o.seconds
	if o.seconds > 0 {
		mode = "seconds"
		if o.trace == 1 {
			timed = 0.3 * o.seconds
			slice = time.Duration(0.45 * o.seconds / (timedProbes * probeReps) * float64(time.Second))
		}
	}

	br := &benchResult{Schema: resultSchema, Mode: mode, Seed: o.seed, Env: currentEnv()}
	var runners []*runner
	defer func() {
		for _, r := range runners {
			r.close()
		}
	}()
	for _, spec := range specs {
		r := newRunner(spec, cfg)
		runners = append(runners, r)
		fmt.Fprintf(progress, "set-up %s\n", spec.Name)
		if err := r.clocked(r.setup); err != nil {
			return nil, err
		}
	}
	// Rounds interleave across workloads (A B C D E A B ...), so a slow
	// stretch of the machine lands on one round of each, not on one
	// workload.
	for round := 0; round < rounds; round++ {
		for _, r := range runners {
			stop := fixedOps(r.spec.Ops)
			switch {
			case o.smoke:
				stop = fixedOps(r.spec.SmokeOps)
			case timed > 0:
				stop = forDuration(time.Duration(timed / float64(rounds) * float64(time.Second)))
			}
			fmt.Fprintf(progress, "round %d/%d %s\n", round+1, rounds, r.spec.Name)
			if err := r.clocked(func() error { return r.round(stop) }); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range runners {
		var layers map[string]metricValue
		if o.trace != 0 {
			fmt.Fprintf(progress, "layers %s\n", r.spec.Name)
			var spans []span
			err := r.clocked(func() (err error) {
				layers, spans, err = r.layers(slice, tracedOps)
				return err
			})
			if err != nil {
				return nil, err
			}
			if err := writeTrace(traceFile(o.outDir, r.spec.Name), r.spec.Name, o.seed, tracedOps, spans); err != nil {
				return nil, err
			}
		}
		r.close()
		res := r.result()
		res.PerLayer = layers
		br.Workloads = append(br.Workloads, res)
	}
	return br, nil
}

// printDriverLine prints the driver's contract line for a one-workload
// run: every end-to-end metric of BENCHMARK.json with -trace 0, every
// per-layer metric with -trace 1.
func printDriverLine(stdout, stderr io.Writer, br *benchResult, trace int) int {
	if len(br.Workloads) != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace 0|1 reports one workload; name it with -workload")
		return 2
	}
	wr := br.Workloads[0]
	line := driverLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, wr.EndToEnd
	if trace == 1 {
		defs, values = perLayer, wr.PerLayer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = values[d.Name]
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return 0
}
