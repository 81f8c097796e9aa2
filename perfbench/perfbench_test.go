package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"tinca/internal/stack"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{20, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{400000, 0.9999, true},
		{1000000, 0.99999, true},
	}
	for _, c := range cases {
		got, ok := tailQuantile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			xs := make([]float64, c.n)
			for i := range xs {
				xs[i] = float64(i)
			}
			if _, beyond := quantile(xs, got); beyond < minTail {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, got*100, beyond)
			}
		}
	}
}

func TestTailFallsBackBelowP99(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, used := tail(xs, 0.99)
	if used != 0.9 || v != 450 {
		t.Fatalf("tail of 500 samples = %v at p%g; want 450 at p90", v, used*100)
	}
	if v, used := tail(xs[:0], 0.99); v != 0 || used != 0.99 {
		t.Fatalf("tail of no samples = %v at %v", v, used)
	}
}

// syntheticPhase is a measured phase with one sample per op and nonzero
// counters, enough for every metric to be computed.
func syntheticPhase(n int) phase {
	ph := phase{ops: int64(n), perClient: []int64{int64(n)}, wallNS: int64(time.Second), userBytes: 4096 * int64(n), fsCalls: int64(n)}
	for i := 0; i < n; i++ {
		ph.samples = append(ph.samples, sample{end: int64(i+1) * 1000, wall: int64(1000 + i), sim: int64(2000 + i)})
	}
	ph.after = stack.Stats{SimulatedNS: 1e9}
	ph.after.Device.NVMBytesWritten = 8192 * int64(n)
	ph.after.Cache.Commits = int64(n)
	return ph
}

func TestReportPrintsSampleCounts(t *testing.T) {
	rep := endToEnd(specs[0], syntheticPhase(20000), setupTimes{cpu: []float64{1, 2, 3}, wall: []float64{1, 2, 3}}, crashResult{cycles: 1})
	var out bytes.Buffer
	rep.print(&out)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.Contains(line, " = ") && !strings.Contains(line, "(n=") {
			t.Errorf("metric line without a sample count: %q", line)
		}
	}
	if !strings.Contains(out.String(), "op_tail_us = 20.979 us (n=20000) [p99.9 of all") {
		t.Errorf("20000 samples support p99.9, which the tail line should use:\n%s", out.String())
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// gated returns the name → unit map of a report's JSON metrics, failing
// on a malformed or repeated name.
func gated(t *testing.T, rep *report) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, m := range rep.metrics {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q does not match %v", m.name, metricName)
		}
		if !m.gated {
			continue
		}
		if _, dup := out[m.name]; dup {
			t.Errorf("metric %q reported twice", m.name)
		}
		out[m.name] = m.unit
	}
	return out
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, s := range specs {
		ours = append(ours, s.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}

	ph := syntheticPhase(3000)
	check := func(kind string, got map[string]string, want []struct{ Name, Unit, Better string }) {
		for _, m := range want {
			unit, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %q is in BENCHMARK.json but not reported", kind, m.Name)
			case unit != m.Unit:
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, m.Name, unit, m.Unit)
			}
			delete(got, m.Name)
		}
		var extra []string
		for name := range got {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s metrics reported but missing from BENCHMARK.json: %v", kind, extra)
		}
	}
	for _, sp := range specs {
		check("end-to-end", gated(t, endToEnd(sp, ph, setupTimes{cpu: []float64{1}, wall: []float64{1}}, crashResult{cycles: 1})), b.EndToEnd)
		check("per-layer", gated(t, perLayer(sp, ph, ph, newTracer(), crashResult{cycles: 1})), b.PerLayer)
	}
}

func TestWrappersForwardCapabilities(t *testing.T) {
	sp, _ := lookup("tiered_mix")
	tr := newTracer()
	b, err := setup(sp, 7, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.release()
	if !b.rig.fs.Stats().ConcurrentReads {
		t.Error("file system over the traced backend serializes its reads")
	}
	v, err := b.rig.fs.ReadAtView("/data.bin", 0, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !v.ZeroCopy() {
		t.Error("file system over the traced backend copies views")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if b.rig.tier.Stats().Admits == 0 {
		t.Error("no clean victim reached the tier through the traced store")
	}
	tr.on.Store(true)
	ph := b.run(time.Time{}, []int64{200}, true)
	tr.on.Store(false)
	if ph.failed > 0 {
		t.Fatalf("%d ops failed: %v", ph.failed, ph.firstErr)
	}
	var reads, admits int
	for _, s := range tr.spans {
		if s.layer == layerCore && s.name == coreRead {
			reads++
		}
		if s.layer == layerDisk && s.name == diskAdmit {
			admits++
		}
	}
	if reads == 0 || admits == 0 {
		t.Errorf("traced run recorded %d core reads and %d tier admissions", reads, admits)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range specs {
		for _, trace := range []string{"0", "1"} {
			if trace == "1" && sp.name != "tpcc" {
				continue // the traced tpcc run also checks simulated counters for equality
			}
			args := []string{"-workload", sp.name, "-seed", "3", "-seconds", "1", "-trace", trace, "-spans-dir", t.TempDir()}
			if code := run(args); code != 0 {
				t.Errorf("%s trace=%s: exit code %d", sp.name, trace, code)
			}
		}
	}
}

func TestPerSecondTakesWindowMedians(t *testing.T) {
	ph := syntheticPhase(3000) // one op completes every µs
	// Three one-second windows; the second has a 500MB spike and twice the
	// CPU time per op.
	cpu := int64(0)
	for i := 0; i <= 150; i++ {
		at := int64(i) * int64(procEvery)
		rss := 100.0
		if i == 75 {
			rss = 500
		}
		ph.proc = append(ph.proc, procSample{at: at, rssMB: rss, cpuNS: cpu})
		step := int64(procEvery) // 1 CPU ns per wall ns
		if i >= 50 && i < 100 {
			step *= 2
		}
		cpu += step
	}
	for i := range ph.samples {
		ph.samples[i].end = int64(i+1) * int64(time.Second) / 1000
	}
	rss, cpuPerOp := perSecond(ph)
	if len(rss) != 3 || median(rss) != 100 || rss[1] != 500 {
		t.Errorf("per-second RSS peaks %v; want three with median 100 and a 500 spike", rss)
	}
	if len(cpuPerOp) != 3 || median(cpuPerOp) != 1e6 {
		t.Errorf("per-second CPU per op %v; want median 1ms (1 CPU-second over 1000 ops)", cpuPerOp)
	}
}
