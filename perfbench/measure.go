package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tinca/internal/core"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

// sample is one timed operation.
type sample struct {
	end  int64 // wall ns since the phase started, at completion
	wall int64 // wall ns inside the call
	sim  int64 // simulated ns the clock advanced during the call
	kind uint8
}

// bench is one assembled, loaded and warmed stack with its driver.
type bench struct {
	seed    int64
	rig     *rig
	drv     driver
	clients []*client
}

// setup builds the stack, lays out the dataset and warms it up, ending on
// a freshly collected heap.
func setup(sp spec, seed int64, tr *tracer) (*bench, error) {
	r, err := newRig(sp.cfg, tr)
	if err != nil {
		return nil, err
	}
	b := &bench{seed: seed, rig: r, drv: sp.driver(seed)}
	for i := 0; i < sp.clients; i++ {
		c := &client{id: i, rng: sim.NewRand(seed*1000003 + int64(i) + 1)}
		c.api = &fileAPI{fs: r.fs, tr: tr, op: -1}
		b.drv.setupClient(c)
		b.clients = append(b.clients, c)
	}
	if err := b.drv.load(b.clients[0].api); err != nil {
		r.discard()
		return nil, fmt.Errorf("load: %w", err)
	}
	counts := make([]int64, sp.clients)
	for i := range counts {
		counts[i] = int64(sp.warmOps)
	}
	if ph := b.run(time.Time{}, counts, false); ph.failed > 0 {
		r.discard()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", ph.failed, ph.ops, ph.firstErr)
	}
	if r.tier != nil && r.tier.Stats().Uploads == 0 {
		r.discard()
		return nil, fmt.Errorf("warm-up finished before the first L3 upload")
	}
	runtime.GC()
	return b, nil
}

// phase is what one closed-loop run of every client measured.
type phase struct {
	samples   []sample // sorted by end
	perClient []int64  // ops per client
	ops       int64
	failed    int64
	firstErr  error
	wallNS    int64
	before    stack.Stats
	after     stack.Stats
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	gcCPU     float64      // share of CPU time spent in GC
	proc      []procSample // taken while the clients ran (recorded phases only)
	userBytes int64
	fsCalls   int64
}

// run drives every client until deadline, or, when counts is non-nil,
// for exactly counts[i] ops on client i.
func (b *bench) run(deadline time.Time, counts []int64, record bool) phase {
	ph := phase{perClient: make([]int64, len(b.clients)), before: b.rig.stats()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPU()
	for _, c := range b.clients {
		c.api.calls, c.api.wbytes = 0, 0
	}
	t0 := time.Now()
	var stopProc chan struct{}
	procOut := make(chan []procSample, 1)
	if record {
		stopProc = make(chan struct{})
		go sampleProcess(t0, stopProc, procOut)
	}
	per := make([][]sample, len(b.clients))
	errs := make([]error, len(b.clients))
	fails := make([]int64, len(b.clients))
	var wg sync.WaitGroup
	for i, c := range b.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			clock, tr := b.rig.clock, c.api.tr
			var out []sample
			if record {
				out = make([]sample, 0, 1<<14)
			}
			n := int64(0)
			for {
				if counts != nil {
					if n >= counts[i] {
						break
					}
				} else if !time.Now().Before(deadline) {
					break
				}
				b.drv.next(c)
				c.api.op = tr.begin(layerOp, c.kind, -1)
				w0 := time.Since(t0)
				s0 := clock.Now()
				err := b.drv.call(c)
				s1 := clock.Now()
				w1 := time.Since(t0)
				tr.end(c.api.op)
				c.api.op = -1
				if err == nil {
					err = b.drv.check(c)
				}
				if err != nil {
					if fails[i] == 0 {
						errs[i] = err
					}
					fails[i]++
				}
				n++
				if record {
					out = append(out, sample{end: int64(w1), wall: int64(w1 - w0), sim: int64(s1 - s0), kind: c.kind})
				}
			}
			per[i] = out
			ph.perClient[i] = n
		}(i, c)
	}
	wg.Wait()
	ph.wallNS = int64(time.Since(t0))
	if record {
		close(stopProc)
		ph.proc = <-procOut
	}
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPU()
	ph.after = b.rig.stats()
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	ph.gcCPU = cpu1.share(cpu0)
	for i, c := range b.clients {
		ph.ops += ph.perClient[i]
		ph.failed += fails[i]
		if ph.firstErr == nil {
			ph.firstErr = errs[i]
		}
		ph.userBytes += c.api.wbytes
		ph.fsCalls += c.api.calls
		ph.samples = append(ph.samples, per[i]...)
	}
	sort.Slice(ph.samples, func(i, j int) bool { return ph.samples[i].end < ph.samples[j].end })
	return ph
}

// crashTries bounds the operations tried before one crash cycle settles
// for a crash between operations.
const crashTries = 10

// crashCycles is how many crash-and-remount cycles end a run. The restart
// time depends on where in an operation the power fails, so one cycle
// would make recovery_sim_ms flip between a few values; the mean of
// several is steadier.
const crashCycles = 5

// crashResult is the outcome of the end-of-run crash cycles.
type crashResult struct {
	cycles   int
	midOp    int                // cycles whose crash cut an operation short
	midSeal  int                // cycles whose crash interrupted a commit's seal
	recovery core.RecoveryStats // phase times summed over cycles
}

// meanMS returns a summed recovery duration as a per-cycle mean in ms.
func (cr crashResult) meanMS(ns int64) float64 {
	return ratio(float64(ns), float64(cr.cycles)) / 1e6
}

// crashCheck ends a run with crashCycles power failures. Each arms a crash
// at a seeded point inside an operation, cuts power with a seeded eviction
// draw, remounts, and verifies the file system, the cache and every
// acknowledged write.
func (b *bench) crashCheck() (crashResult, error) {
	rng := sim.NewRand(b.seed ^ 0x5eed)
	var res crashResult
	// Later cycles start from the state the previous cycle just verified.
	if err := b.drv.precheck(); err != nil {
		return res, fmt.Errorf("before the first crash: %w", err)
	}
	for i := 0; i < crashCycles; i++ {
		crashed, err := b.crashOnce(rng)
		if err != nil {
			return res, fmt.Errorf("crash cycle %d: %w", i, err)
		}
		rs := b.rig.cache.RecoveryStats()
		res.cycles++
		if crashed {
			res.midOp++
		}
		res.recovery.ScanNS += rs.ScanNS
		res.recovery.RedoNS += rs.RedoNS
		res.recovery.UndoNS += rs.UndoNS
		res.recovery.RebuildNS += rs.RebuildNS
		res.recovery.TotalNS += rs.TotalNS
		if rs.RingSpan > 0 {
			res.midSeal++
		}
		if err := b.rig.checkMounted(); err != nil {
			return res, fmt.Errorf("crash cycle %d: %w", i, err)
		}
		for _, c := range b.clients {
			c.api.fs = b.rig.fs
		}
		if err := b.drv.verify(b.clients[0].api, crashed); err != nil {
			return res, fmt.Errorf("crash cycle %d: after remount: %w", i, err)
		}
	}
	return res, nil
}

// crashOnce runs one crash cycle up to the remount, reporting whether the
// crash cut an operation short.
func (b *bench) crashOnce(rng *rand.Rand) (bool, error) {
	c := b.clients[0]
	mem := b.rig.mem
	// Size the crash window with one uninterrupted crash op.
	p0 := mem.PersistOps()
	if err := b.drv.crashOp(c); err != nil {
		return false, fmt.Errorf("probe op: %w", err)
	}
	span := mem.PersistOps() - p0
	if span < 1 {
		span = 1
	}
	// Operations differ in length, so an armed point can lie beyond the
	// next one; that op then completes, is acknowledged, and another is
	// tried.
	crashed := false
	for try := 0; try < crashTries && !crashed; try++ {
		mem.ArmCrash(rng.Int63n(span))
		var opErr error
		crashed, _ = pmem.CatchCrash(func() { opErr = b.drv.crashOp(c) })
		if !crashed {
			mem.DisarmCrash()
			if opErr != nil {
				return false, fmt.Errorf("crash op: %w", opErr)
			}
		}
	}
	b.rig.crash(rng, 0.5)
	if err := b.rig.remount(); err != nil {
		return crashed, fmt.Errorf("remount: %w", err)
	}
	return crashed, nil
}

// processCPU returns the process's user plus system CPU time in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// cpuTimes are process CPU totals from runtime/metrics.
type cpuTimes struct{ gc, total float64 }

func (c cpuTimes) share(prev cpuTimes) float64 {
	return ratio(c.gc-prev.gc, c.total-prev.total)
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() cpuTimes {
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	var c cpuTimes
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// rssMB reads the process's resident set in MB from /proc/self/status
// (field "VmRSS:"); ok is false where that is unavailable.
func rssMB() (mb float64, ok bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// procSample is one reading of the process's resident set and CPU time.
type procSample struct {
	at    int64 // wall ns since the phase started
	rssMB float64
	cpuNS int64
}

// procEvery is how often a measured phase samples the process.
const procEvery = 20 * time.Millisecond

// sampleProcess reads the resident set and CPU time every procEvery until
// stop is closed, then sends the samples on out. Where /proc is
// unavailable it reads the Go runtime's mapped memory instead.
func sampleProcess(t0 time.Time, stop <-chan struct{}, out chan<- []procSample) {
	var s []procSample
	tick := time.NewTicker(procEvery)
	defer tick.Stop()
	for {
		mb, ok := rssMB()
		if !ok {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mb = float64(ms.Sys) / (1 << 20)
		}
		s = append(s, procSample{at: int64(time.Since(t0)), rssMB: mb, cpuNS: processCPU()})
		select {
		case <-stop:
			out <- s
			return
		case <-tick.C:
		}
	}
}

// release drops a bench's memory before the next set-up.
func (b *bench) release() {
	b.rig.discard()
	runtime.GC()
	debug.FreeOSMemory()
}
