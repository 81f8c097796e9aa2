package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricVal is one reported number. n is the count of samples or
// operations behind it; gated metrics go into the JSON result line.
type metricVal struct {
	name  string
	value float64
	unit  string
	n     int64
	gated bool
	note  string
}

type report struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	metrics   []metricVal
	notes     []string
}

func (r *report) add(name string, value float64, unit string, n int64, gated bool, note string) {
	r.metrics = append(r.metrics, metricVal{name, value, unit, n, gated, note})
}

func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		line := fmt.Sprintf("%s %s = %.6g %s (n=%d)", r.workload, m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += " " + m.note
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s note: %s\n", r.workload, n)
	}
}

// noteCrash records the end-of-run crash check; a failure makes the
// result incorrect.
func (r *report) noteCrash(cr crashResult, err error) {
	if err != nil {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf("CRASH CHECK FAILED: %v", err))
		return
	}
	r.notes = append(r.notes, fmt.Sprintf("crash check passed: %d crash-remount cycles (%d cut an op short, %d a seal), fsck, cache invariants and every acknowledged write verified after each",
		cr.cycles, cr.midOp, cr.midSeal))
}

// windowSamples is the minimum window size: enough for a p99 with ten
// samples beyond it.
const windowSamples = 1000

// maxWindows bounds how many windows a run's samples are cut into.
const maxWindows = 20

// windows cuts completion-ordered samples into at most maxWindows equal
// consecutive windows of at least windowSamples each (one window when
// there are fewer samples).
func windows(s []sample) [][]sample {
	nw := len(s) / windowSamples
	if nw > maxWindows {
		nw = maxWindows
	}
	if nw < 1 {
		nw = 1
	}
	out := make([][]sample, 0, nw)
	for i := 0; i < nw; i++ {
		out = append(out, s[i*len(s)/nw:(i+1)*len(s)/nw])
	}
	return out
}

// perSecond cuts a phase's process samples into windows of at least a
// second and returns each window's peak resident set and CPU time per op
// completed in it. Reporting the median window keeps one garbage
// collection overshoot or one slow second of the host out of the result.
func perSecond(ph phase) (rssPeaks, cpuPerOp []float64) {
	ps := ph.proc
	opsUpTo := func(at int64) int {
		return sort.Search(len(ph.samples), func(i int) bool { return ph.samples[i].end > at })
	}
	window := func(from, to int) {
		peak := 0.0
		for _, p := range ps[from : to+1] {
			peak = math.Max(peak, p.rssMB)
		}
		rssPeaks = append(rssPeaks, peak)
		if ops := opsUpTo(ps[to].at) - opsUpTo(ps[from].at); ops > 0 {
			cpuPerOp = append(cpuPerOp, float64(ps[to].cpuNS-ps[from].cpuNS)/float64(ops))
		}
	}
	from := 0
	for i := 1; i < len(ps); i++ {
		if ps[i].at-ps[from].at >= int64(time.Second) {
			window(from, i)
			from = i
		}
	}
	if len(rssPeaks) == 0 && len(ps) > 1 {
		window(0, len(ps)-1)
	}
	return rssPeaks, cpuPerOp
}

// tail returns the q-quantile of sorted, or, when fewer than minTail
// samples lie beyond it, the quantile at the highest percentile that has
// them; used is the percentile actually reported.
func tail(sorted []float64, q float64) (v, used float64) {
	if best, ok := tailQuantile(len(sorted)); ok && best < q {
		q = best
	}
	v, _ = quantile(sorted, q)
	return v, q
}

func pctNote(used, want float64) string {
	if used == want {
		return ""
	}
	return fmt.Sprintf("[too few samples for p%g: reported at p%g]", want*100, used*100)
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(sp spec, ph phase, su setupTimes, cr crashResult) *report {
	rep := &report{workload: sp.name, correct: true, attempted: ph.ops, failed: ph.failed}
	if ph.firstErr != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("FIRST FAILED OP: %v", ph.firstErr))
	}
	ops := float64(ph.ops)
	n := int64(len(ph.samples))

	ws := windows(ph.samples)
	var tput, p50s, p99s []float64
	var p99used float64
	prev := int64(0)
	for _, w := range ws {
		last := w[len(w)-1].end
		tput = append(tput, float64(len(w))/(float64(last-prev)/1e9))
		prev = last
		lat := make([]float64, len(w))
		for i, s := range w {
			lat[i] = float64(s.wall) / 1e3
		}
		sort.Float64s(lat)
		v, _ := quantile(lat, 0.5)
		p50s = append(p50s, v)
		v, p99used = tail(lat, 0.99)
		p99s = append(p99s, v)
	}
	wallAll := make([]float64, n)
	simAll := make([]float64, n)
	for i, s := range ph.samples {
		wallAll[i] = float64(s.wall) / 1e3
		simAll[i] = float64(s.sim) / 1e3
	}
	sort.Float64s(wallAll)
	sort.Float64s(simAll)
	sim50, _ := quantile(simAll, 0.5)
	sim99, sim99used := tail(simAll, 0.99)

	d := ph.after.Device.Sub(ph.before.Device)
	simNS := float64(ph.after.SimulatedNS - ph.before.SimulatedNS)
	user := float64(ph.userBytes)
	win := fmt.Sprintf("[median of %d windows]", len(ws))

	rep.notes = append(rep.notes, fmt.Sprintf("ops/s per window: %.5g", tput),
		fmt.Sprintf("set-up CPU seconds: %.4g, wall seconds: %.4g", su.cpu, su.wall))
	// Only metrics that stay steady on a shared 2-vCPU host go into the
	// JSON line. Other tenants move every wall-clock figure by up to 40%
	// for minutes at a time, and CPU time per op by up to 30% between sets
	// of runs. On tiered_mix the uploader and prefetcher charge the shared
	// simulated clock at wall-clock-dependent moments, which moves the
	// simulated tail. The median simulated op has a fixed cost on fio_hot
	// and tiered_mix, so it reads the same on every run.
	// Set-up time is gated as process CPU time: it shows work moved into
	// set-up, and the host's other tenants moved the wall time of the same
	// set-up by half between two sets of runs 15 minutes apart.
	rep.add("setup_s", median(su.cpu), "s", int64(len(su.cpu)), true, "[process user+system CPU; median of set-ups]")
	rep.add("setup_wall_s", median(su.wall), "s", int64(len(su.wall)), false, "[median of set-ups]")
	rssPeaks, cpuPerOp := perSecond(ph)
	rep.add("cpu_us_per_op", median(cpuPerOp)/1e3, "us", n, false,
		fmt.Sprintf("[process user+system CPU; median of %d one-second windows]", len(cpuPerOp)))
	rep.add("ops_per_s", median(tput), "1/s", n, false, win)
	rep.add("op_p50_us", median(p50s), "us", n, false, win)
	rep.add("op_p99_us", median(p99s), "us", n, false, win+pctNote(p99used, 0.99))
	rep.add("sim_ops_per_s", ratio(ops, simNS/1e9), "1/s", n, true, "")
	rep.add("sim_op_p50_us", sim50, "us", n, false, "")
	rep.add("sim_op_p99_us", sim99, "us", n, false, pctNote(sim99used, 0.99))
	rep.add("nvm_write_amp", ratio(float64(d.NVMBytesWritten), user), "ratio", n, true,
		fmt.Sprintf("[%d user bytes written]", ph.userBytes))
	rep.add("disk_write_amp", ratio(float64(d.DiskBytesWrite), user), "ratio", n, false, "")
	cost := float64(ph.after.Obj.CostNano-ph.before.Obj.CostNano) / 1e9
	rep.add("l3_usd_per_mop", ratio(cost, ops/1e6), "usd", n, false, "")
	rep.add("recovery_sim_ms", cr.meanMS(cr.recovery.TotalNS), "ms", int64(cr.cycles), true, "[mean over crash cycles]")
	rep.add("peak_rss_mb", median(rssPeaks), "MB", int64(len(ph.proc)), true,
		fmt.Sprintf("[sampled every %v; median of %d one-second peaks]", procEvery, len(rssPeaks)))
	rep.add("allocs_per_op", ratio(float64(ph.mallocs), ops), "count", n, true, "")
	rep.add("failed_ops_frac", ratio(float64(ph.failed), ops), "ratio", n, false, "")

	// The tail at the highest percentile the whole run supports.
	if q, ok := tailQuantile(len(wallAll)); ok {
		w, _ := quantile(wallAll, q)
		s, _ := quantile(simAll, q)
		note := fmt.Sprintf("[p%g of all samples: the highest percentile with >=%d beyond it]", q*100, minTail)
		rep.add("op_tail_us", w, "us", n, false, note)
		rep.add("sim_op_tail_us", s, "us", n, false, note)
	}
	return rep
}

// spanAgg collects one (layer, name) pair's span durations in µs.
type spanAgg struct{ wall, sim []float64 }

func (a *spanAgg) q(sim bool, q float64) float64 {
	if a == nil {
		return 0
	}
	xs := a.wall
	if sim {
		xs = a.sim
	}
	v, _ := tail(sortedCopy(xs), q)
	return v
}

// perLayer computes the per-layer metrics: counts from the untraced run
// ph, span timings from the traced replay pt.
func perLayer(sp spec, ph, pt phase, tr *tracer, cr crashResult) *report {
	rep := &report{workload: sp.name, correct: true, attempted: ph.ops + pt.ops, failed: ph.failed + pt.failed}
	if ph.firstErr != nil || pt.firstErr != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("FIRST FAILED OP: %v / %v", ph.firstErr, pt.firstErr))
	}
	ops := float64(ph.ops)
	n := ph.ops
	per := func(v int64) float64 { return ratio(float64(v), ops) }

	aggs := map[[2]uint8]*spanAgg{}
	var inner, ovh, simSum [numLayers]float64
	var count [numLayers]int64
	for _, s := range tr.spans {
		if s.wall1 < s.wall0 { // never closed
			continue
		}
		k := [2]uint8{uint8(s.layer), s.name}
		a := aggs[k]
		if a == nil {
			a = &spanAgg{}
			aggs[k] = a
		}
		a.wall = append(a.wall, float64(s.wall1-s.wall0)/1e3)
		a.sim = append(a.sim, float64(s.sim1-s.sim0)/1e3)
		inner[s.layer] += float64(s.wall1 - s.wall0)
		ovh[s.layer] += float64(s.ovh)
		simSum[s.layer] += float64(s.sim1 - s.sim0)
		count[s.layer]++
	}
	get := func(l layer, name uint8) *spanAgg { return aggs[[2]uint8{uint8(l), name}] }
	cnt := func(l layer, name uint8) int64 {
		if a := get(l, name); a != nil {
			return int64(len(a.wall))
		}
		return 0
	}
	tops := float64(pt.ops)
	selfWall := func(l layer) float64 {
		return ratio(inner[l]-inner[l+1]-ovh[l+1], tops) / 1e3
	}
	selfSim := func(l layer) float64 { return ratio(simSum[l]-simSum[l+1], tops) / 1e3 }

	c := subCache(ph)
	d := ph.after.Device.Sub(ph.before.Device)
	t := subTier(ph)
	o := ph.after.Obj
	o0 := ph.before.Obj

	// oltp
	isTPCC := sp.name == "tpcc"
	for k, name := range tpccOpNames {
		var a *spanAgg
		if isTPCC {
			a = get(layerOp, uint8(k))
		}
		rep.add("oltp."+name+".wall_us_p50", a.q(false, 0.5), "us", lenOf(a), true, "")
		rep.add("oltp."+name+".sim_us_p50", a.q(true, 0.5), "us", lenOf(a), true, "")
	}
	fsPerTxn := 0.0
	if isTPCC {
		fsPerTxn = per(ph.fsCalls)
	}
	rep.add("oltp.fs_calls_per_txn", fsPerTxn, "count", n, true, "")

	// fs
	rep.add("fs.calls_per_op", per(ph.fsCalls), "count", n, true, "")
	rep.add("fs.self_wall_us_per_op", selfWall(layerFS), "us", pt.ops, true, "")
	rep.add("fs.self_sim_us_per_op", selfSim(layerFS), "us", pt.ops, true, "")
	rep.add("fs.read_wall_us_p50", get(layerFS, fsRead).q(false, 0.5), "us", cnt(layerFS, fsRead), true, "")
	rep.add("fs.write_wall_us_p50", get(layerFS, fsWrite).q(false, 0.5), "us", cnt(layerFS, fsWrite), true, "")
	rep.add("fs.core_reads_per_fs_read", ratio(float64(cnt(layerCore, coreRead)), float64(cnt(layerFS, fsRead))), "ratio",
		cnt(layerFS, fsRead), true, "")
	commits := ph.after.FS.GroupCommits - ph.before.FS.GroupCommits
	rep.add("fs.commits_per_op", per(commits), "count", n, true, "")
	rep.add("fs.blocks_per_commit", ratio(float64(c.Blocks), float64(c.Commits)), "count", c.Commits, true, "")

	// core
	commit := get(layerCore, coreCommit)
	nc := cnt(layerCore, coreCommit)
	rep.add("core.commit_wall_us_p50", commit.q(false, 0.5), "us", nc, true, "")
	rep.add("core.commit_wall_us_p99", commit.q(false, 0.99), "us", nc, true, "")
	rep.add("core.commit_sim_us_p50", commit.q(true, 0.5), "us", nc, true, "")
	rep.add("core.commit_sim_us_p99", commit.q(true, 0.99), "us", nc, true, "")
	rep.add("core.self_wall_us_per_op", selfWall(layerCore), "us", pt.ops, true, "")
	rep.add("core.self_sim_us_per_op", selfSim(layerCore), "us", pt.ops, true, "")
	rep.add("core.cow_blocks_per_commit", ratio(float64(c.COWBlocks), float64(c.Commits)), "count", c.Commits, true, "")
	read := get(layerCore, coreRead)
	nr := cnt(layerCore, coreRead)
	rep.add("core.read_wall_us_p50", read.q(false, 0.5), "us", nr, true, "")
	rep.add("core.read_sim_us_p50", read.q(true, 0.5), "us", nr, true, "")
	rep.add("core.read_sim_us_p99", read.q(true, 0.99), "us", nr, true, "")
	rep.add("core.read_hit_ratio", ratio(float64(c.ReadHits), float64(c.ReadHits+c.ReadMisses)), "ratio", c.ReadHits+c.ReadMisses, true, "")
	rep.add("core.fast_hit_ratio", ratio(float64(c.ReadHitFast), float64(c.ReadHits)), "ratio", c.ReadHits, true, "")
	rep.add("core.seqlock_retries_per_kop", 1000*per(c.SeqlockRetries), "count", n, true, "")
	rep.add("core.write_hit_ratio", ratio(float64(c.WriteHits), float64(c.WriteHits+c.WriteMisses)), "ratio", c.WriteHits+c.WriteMisses, true, "")
	rep.add("core.evictions_per_op", per(c.Evictions), "count", n, true, "")
	rep.add("core.dirty_evictions_per_op", per(c.DirtyEvictions), "count", n, true, "")
	rs := cr.recovery
	cycles := int64(cr.cycles)
	rep.add("core.recovery.scan_sim_ms", cr.meanMS(rs.ScanNS), "ms", cycles, true, "")
	rep.add("core.recovery.redo_sim_ms", cr.meanMS(rs.RedoNS), "ms", cycles, true, "")
	rep.add("core.recovery.undo_sim_ms", cr.meanMS(rs.UndoNS), "ms", cycles, true, "")
	rep.add("core.recovery.rebuild_sim_ms", cr.meanMS(rs.RebuildNS), "ms", cycles, true, "")

	// pmem
	rep.add("pmem.clflush_per_op", per(d.CLFlushes), "count", n, true, "")
	rep.add("pmem.clflush_per_commit", ratio(float64(d.CLFlushes), float64(c.Commits)), "count", c.Commits, true, "")
	rep.add("pmem.sfence_per_op", per(d.SFences), "count", n, true, "")
	rep.add("pmem.bytes_written_per_op", per(d.NVMBytesWritten), "B", n, true, "")
	rep.add("pmem.bytes_read_per_op", per(d.NVMBytesRead), "B", n, true, "")

	// blockdev
	dr, dw := get(layerDisk, diskRead), get(layerDisk, diskWrite)
	rep.add("blockdev.reads_per_op", per(d.DiskBlocksRead), "count", n, true, "")
	rep.add("blockdev.writes_per_op", per(d.DiskBlocksWrite), "count", n, true, "")
	rep.add("blockdev.read_sim_us_p50", dr.q(true, 0.5), "us", lenOf(dr), true, "")
	rep.add("blockdev.read_sim_us_p99", dr.q(true, 0.99), "us", lenOf(dr), true, "")
	rep.add("blockdev.write_sim_us_p99", dw.q(true, 0.99), "us", lenOf(dw), true, "")
	tsim := float64(pt.after.SimulatedNS - pt.before.SimulatedNS)
	rep.add("blockdev.sim_share", ratio(simSum[layerDisk], tsim), "ratio", count[layerDisk], true, "")

	// objstore
	demand := t.L2Hits + t.StagingHits + t.L3Fetches
	rep.add("objstore.gets_per_op", per(o.Gets-o0.Gets), "count", n, true, "")
	rep.add("objstore.puts_per_op", per(o.Puts-o0.Puts), "count", n, true, "")
	rep.add("objstore.l2_hit_ratio", ratio(float64(t.L2Hits), float64(demand)), "ratio", demand, true, "")
	rep.add("objstore.prefetch_useful_ratio", ratio(float64(t.PrefetchHits), float64(t.Prefetches)), "hits/fetch", t.Prefetches, true, "")
	rep.add("objstore.blocks_per_put", ratio(float64(t.UploadBlocks), float64(t.Uploads)), "count", t.Uploads, true, "")
	rep.add("objstore.backpressure_per_kop", 1000*per(t.Backpressure), "count", n, true, "")
	rep.add("objstore.bytes_down_per_op", per(o.BytesDown-o0.BytesDown), "B", n, true, "")
	rep.add("objstore.bytes_up_per_op", per(o.BytesUp-o0.BytesUp), "B", n, true, "")

	// runtime (untraced run)
	rep.add("runtime.alloc_bytes_per_op", ratio(float64(ph.allocB), ops), "B", n, true, "")
	rep.add("runtime.gc_cycles_per_kop", 1000*ratio(float64(ph.gcCycles), ops), "count", n, true, "")
	rep.add("runtime.gc_cpu_share", ph.gcCPU, "ratio", n, true, "")

	// tracing cost: whole-phase throughput, traced versus untraced
	untraced := ratio(float64(ph.ops), float64(ph.wallNS)/1e9)
	traced := ratio(float64(pt.ops), float64(pt.wallNS)/1e9)
	rep.add("trace.overhead_pct", 100*(1-ratio(traced, untraced)), "%", pt.ops, true,
		fmt.Sprintf("[untraced %.6g ops/s, traced %.6g ops/s]", untraced, traced))
	return rep
}

func lenOf(a *spanAgg) int64 {
	if a == nil {
		return 0
	}
	return int64(len(a.wall))
}

// compareSim checks that the traced replay charged the simulated devices
// like the untraced run: exactly on tpcc, whose single client and lack of
// background pipelines make the simulation deterministic, and within
// simBoundPct elsewhere.
func (r *report) compareSim(sp spec, ph, pt phase) {
	a, b := ph.after.Device.Sub(ph.before.Device), pt.after.Device.Sub(pt.before.Device)
	pairs := []struct {
		name string
		u, t int64
	}{
		{"clflush", a.CLFlushes, b.CLFlushes},
		{"sfence", a.SFences, b.SFences},
		{"nvm_bytes_written", a.NVMBytesWritten, b.NVMBytesWritten},
		{"nvm_bytes_read", a.NVMBytesRead, b.NVMBytesRead},
		{"disk_blocks_written", a.DiskBlocksWrite, b.DiskBlocksWrite},
		{"disk_blocks_read", a.DiskBlocksRead, b.DiskBlocksRead},
		{"sim_ns", ph.after.SimulatedNS - ph.before.SimulatedNS, pt.after.SimulatedNS - pt.before.SimulatedNS},
	}
	exact := sp.name == "tpcc"
	worst := 0.0
	for _, p := range pairs {
		diff := 0.0
		if p.u != p.t {
			diff = 100 * math.Abs(float64(p.t-p.u)) / math.Max(1, math.Abs(float64(p.u)))
		}
		worst = math.Max(worst, diff)
		if (exact && p.u != p.t) || diff > simBoundPct {
			r.correct = false
			r.notes = append(r.notes, fmt.Sprintf("TRACED RUN DIFFERS: %s untraced=%d traced=%d", p.name, p.u, p.t))
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("traced vs untraced simulated counters: max difference %.4g%% (exact=%v)", worst, exact))
}

func subCache(ph phase) cacheDelta {
	a, b := ph.after.Cache, ph.before.Cache
	return cacheDelta{
		ReadHits: a.ReadHits - b.ReadHits, ReadMisses: a.ReadMisses - b.ReadMisses,
		ReadHitFast: a.ReadHitFast - b.ReadHitFast, SeqlockRetries: a.SeqlockRetries - b.SeqlockRetries,
		WriteHits: a.WriteHits - b.WriteHits, WriteMisses: a.WriteMisses - b.WriteMisses,
		Evictions: a.Evictions - b.Evictions, DirtyEvictions: a.DirtyEvictions - b.DirtyEvictions,
		Commits: a.Commits - b.Commits, Blocks: a.Blocks - b.Blocks, COWBlocks: a.COWBlocks - b.COWBlocks,
	}
}

// cacheDelta holds the cache counter deltas the per-layer metrics use.
type cacheDelta struct {
	ReadHits, ReadMisses, ReadHitFast, SeqlockRetries int64
	WriteHits, WriteMisses, Evictions, DirtyEvictions int64
	Commits, Blocks, COWBlocks                        int64
}

func subTier(ph phase) tierDelta {
	a, b := ph.after.Tier, ph.before.Tier
	return tierDelta{
		L2Hits: a.L2Hits - b.L2Hits, StagingHits: a.StagingHits - b.StagingHits, L3Fetches: a.L3Fetches - b.L3Fetches,
		Prefetches: a.Prefetches - b.Prefetches, PrefetchHits: a.PrefetchHits - b.PrefetchHits,
		Uploads: a.Uploads - b.Uploads, UploadBlocks: a.UploadBlocks - b.UploadBlocks, Backpressure: a.Backpressure - b.Backpressure,
	}
}

// tierDelta holds the tier counter deltas the per-layer metrics use.
type tierDelta struct {
	L2Hits, StagingHits, L3Fetches, Prefetches, PrefetchHits int64
	Uploads, UploadBlocks, Backpressure                      int64
}
