// Command perfbench is the repository's benchmark. It drives the Tinca
// stack through its public layer functions on one of three seeded,
// closed-loop workloads (fio_hot, tpcc, tiered_mix), checks every result
// against an oracle, crashes and remounts the stack at the end of the run,
// and prints the end-to-end metrics; with -trace 1 it instead runs the
// workload twice, untraced and then with span-recording wrappers at the
// fs, core and disk boundaries, and prints the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh, which builds it from source first:
//
//	bash perfbench/run.sh --workload fio_hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRuns is how many times a run builds, loads and warms its stack;
// setup_s is the median, and the last stack is the one measured.
const setupRuns = 5

// setupTimes are the process CPU and wall seconds of each set-up.
type setupTimes struct{ cpu, wall []float64 }

// simBoundPct is how far, in percent, the traced run's simulated counters
// may differ from the untraced run's on workloads whose goroutines
// interleave by wall-clock timing (the sim_ops_per_s bound).
const simBoundPct = 25

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spansDir string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var o options
	var traceFlag int
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&o.workload, "workload", "", "workload: fio_hot, tpcc or tiered_mix")
	fl.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fl.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fl.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	fl.StringVar(&o.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where the traced run writes its spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	sp, ok := lookup(o.workload)
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload fio_hot|tpcc|tiered_mix, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	fmt.Printf("host go=%s GOMAXPROCS=%d nproc=%d seed=%d workload=%s seconds=%d trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), o.seed, o.workload, o.seconds, traceFlag)

	var rep *report
	var err error
	if o.trace {
		rep, err = runTraced(sp, o)
	} else {
		rep, err = runUntraced(sp, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.print(os.Stdout)
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range rep.metrics {
		if m.gated {
			res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.correct || rep.failed > 0 {
		return 1
	}
	return 0
}

// runUntraced measures the end-to-end metrics.
func runUntraced(sp spec, o options) (*report, error) {
	var su setupTimes
	var b *bench
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			b.release()
		}
		t0, cpu0 := time.Now(), processCPU()
		var err error
		if b, err = setup(sp, o.seed, nil); err != nil {
			return nil, err
		}
		su.cpu = append(su.cpu, float64(processCPU()-cpu0)/1e9)
		su.wall = append(su.wall, time.Since(t0).Seconds())
	}
	ph := b.run(time.Now().Add(time.Duration(o.seconds)*time.Second), nil, true)
	cr, cerr := b.crashCheck()
	b.release()
	rep := endToEnd(sp, ph, su, cr)
	rep.noteCrash(cr, cerr)
	return rep, nil
}

// runTraced measures the per-layer metrics: an untraced run for half the
// time, then the same stack assembled with tracing wrappers replaying
// exactly the same per-client op counts.
func runTraced(sp spec, o options) (*report, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	b, err := setup(sp, o.seed, nil)
	if err != nil {
		return nil, err
	}
	ph := b.run(time.Now().Add(half), nil, true)
	cr, cerr := b.crashCheck()
	b.release()

	tr := newTracer()
	bt, err := setup(sp, o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	tr.on.Store(true)
	pt := bt.run(time.Time{}, ph.perClient, true)
	tr.on.Store(false)
	bt.release()

	rep := perLayer(sp, ph, pt, tr, cr)
	rep.noteCrash(cr, cerr)
	rep.compareSim(sp, ph, pt)
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.csv.gz", sp.name, o.seed))
	if err := tr.writeSpans(path, sp.opNames); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s (%d dropped, %d with ambiguous parent)",
		len(tr.spans), path, tr.dropped, tr.ambiguous))
	return rep, nil
}
