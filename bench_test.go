package tinca_test

// bench_test.go maps every table and figure of the paper's evaluation to a
// testing.B benchmark, as the per-experiment index in DESIGN.md requires.
// Each benchmark runs the corresponding experiment driver at a reduced
// scale and reports the headline quantity of that figure as a custom
// metric, so `go test -bench=. -benchmem` regenerates the whole
// evaluation's shape in one run. Use cmd/tincabench for full-scale runs
// and the complete tables.

import (
	"strconv"
	"strings"
	"testing"

	"tinca"
)

// benchScale keeps each experiment to roughly a second; the absolute
// numbers are simulated anyway, so scale affects noise, not shape.
const benchScale = 0.25

// runExperiment executes one driver per benchmark iteration and reports
// the named cell of the result's last row as a custom metric.
func runExperiment(b *testing.B, name string, metricCol, metricName string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := tinca.RunExperiment(name, tinca.ExpOptions{Scale: benchScale, Seed: 42})
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if metricCol != "" && len(t.Rows) > 0 {
			v := t.Cell(len(t.Rows)-1, metricCol)
			v = strings.TrimSuffix(v, "x")
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				b.ReportMetric(f, metricName)
			}
		}
	}
}

// BenchmarkTable1 prints the NVM technology profiles (constants).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1", "", "") }

// BenchmarkTable2 prints the benchmark parameter table (constants).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", "", "") }

// BenchmarkFig3a regenerates Figure 3(a): NVM write traffic of journalling
// vs no journalling; reports the journal/nojournal percentage for the last
// workload (varmail).
func BenchmarkFig3a(b *testing.B) {
	runExperiment(b, "3a", "journal/nojournal %", "journal_traffic_%")
}

// BenchmarkFig3b regenerates Figure 3(b): bandwidth under consistency
// mechanisms; reports the final (journal + clflush) bandwidth.
func BenchmarkFig3b(b *testing.B) {
	runExperiment(b, "3b", "bandwidth MB/s", "journal+flush_MB/s")
}

// BenchmarkFig4 regenerates Figure 4: synchronous cache-metadata cost;
// reports the no-journal no-metadata IOPS.
func BenchmarkFig4(b *testing.B) {
	runExperiment(b, "4", "write IOPS", "nometa_IOPS")
}

// BenchmarkFig7 regenerates Figure 7 (Fio micro-benchmark); reports the
// Tinca/Classic write-IOPS ratio at R/W 7/3.
func BenchmarkFig7(b *testing.B) {
	runExperiment(b, "7", "IOPS ratio", "tinca_iops_ratio")
}

// BenchmarkFig8 regenerates Figure 8 (TPC-C sweep); reports the
// Tinca/Classic TPM ratio at 60 users.
func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "8", "TPM ratio", "tinca_tpm_ratio")
}

// BenchmarkFig10 regenerates Figure 10 (TeraGen on HDFS); reports Tinca's
// execution-time saving at 3 replicas.
func BenchmarkFig10(b *testing.B) {
	runExperiment(b, "10", "time saved %", "time_saved_%")
}

// BenchmarkFig11 regenerates Figure 11 (Filebench on GlusterFS); reports
// the Tinca/Classic OPs ratio for varmail.
func BenchmarkFig11(b *testing.B) {
	runExperiment(b, "11", "OPs ratio", "tinca_ops_ratio")
}

// BenchmarkFig12a regenerates Figure 12(a) (disk media impact); reports
// the Tinca/Classic gap on HDD.
func BenchmarkFig12a(b *testing.B) {
	runExperiment(b, "12a", "Tinca/Classic", "hdd_gap")
}

// BenchmarkFig12b regenerates Figure 12(b) (NVM media impact); reports the
// gap on STT-RAM.
func BenchmarkFig12b(b *testing.B) {
	runExperiment(b, "12b", "Tinca/Classic", "sttram_gap")
}

// BenchmarkFig12c regenerates Figure 12(c) (cache write hit rate); reports
// Tinca's hit rate.
func BenchmarkFig12c(b *testing.B) {
	runExperiment(b, "12c", "write hit rate %", "tinca_hit_%")
}

// BenchmarkFig13 regenerates Figure 13 (blocks per transaction); reports
// the final-window fileserver/webproxy ratio.
func BenchmarkFig13(b *testing.B) {
	runExperiment(b, "13", "fs/wp ratio", "fileserver_over_webproxy")
}

// BenchmarkRecoverability runs the Section 5.1 crash-recovery torture test
// (fails the benchmark on any consistency violation).
func BenchmarkRecoverability(b *testing.B) {
	runExperiment(b, "recover", "", "")
}

// BenchmarkAblations runs the DESIGN.md §6 design-choice benches; reports
// the 4MB-ring IOPS (last row).
func BenchmarkAblations(b *testing.B) {
	runExperiment(b, "ablate", "write IOPS", "ring4MB_IOPS")
}

// BenchmarkEndurance runs the NVM-wear extension; reports Tinca's
// relative lifetime multiplier.
func BenchmarkEndurance(b *testing.B) {
	runExperiment(b, "endurance", "relative lifetime", "tinca_lifetime_x")
}

// BenchmarkCLWB runs the clwb-instruction extension; reports the
// Tinca/Classic gap under clwb.
func BenchmarkCLWB(b *testing.B) {
	runExperiment(b, "clwb", "Tinca/Classic", "clwb_gap")
}

// BenchmarkRecoveryTime runs the recovery-latency extension.
func BenchmarkRecoveryTime(b *testing.B) {
	runExperiment(b, "recovertime", "", "")
}

// BenchmarkGroupCommitScaling runs the "fig: group-commit scaling" bench
// (commit throughput at 1/2/4/8 concurrent committers); reports the
// 8-goroutine speedup over a single committer.
func BenchmarkGroupCommitScaling(b *testing.B) {
	runExperiment(b, "groupcommit", "speedup", "speedup_8g_x")
}

// BenchmarkMissPathScaling runs the "fig: miss-path scaling" bench
// (read-miss throughput at 1/4/8 concurrent readers, serial vs
// concurrent miss path); reports the 8-goroutine concurrent-path
// speedup over the serial miss path.
func BenchmarkMissPathScaling(b *testing.B) {
	runExperiment(b, "misspath", "speedup", "miss_speedup_8g_x")
}

// BenchmarkReadHitScaling runs the "fig: read-hit scaling" bench
// (aggregate hit throughput at 1/4/8/16 concurrent readers on one hot
// shard, locked vs seqlock hit path); reports the 8-reader seqlock
// speedup over the shard-locked baseline.
func BenchmarkReadHitScaling(b *testing.B) {
	// The headline metric lives mid-table (the writer rows come last), so
	// read it from the table's metric map instead of the last row's cell.
	for i := 0; i < b.N; i++ {
		t, err := tinca.RunExperiment("readhit", tinca.ExpOptions{Scale: benchScale, Seed: 42})
		if err != nil {
			b.Fatalf("readhit: %v", err)
		}
		if s, ok := t.Metrics["readhit_speedup_8g_x"]; ok {
			b.ReportMetric(s, "readhit_speedup_8g_x")
		}
	}
}

// BenchmarkCommitLatency measures the latency (simulated work) of one
// 8-block Tinca commit at the API level — the core operation of the paper.
func BenchmarkCommitLatency(b *testing.B) {
	clock := tinca.NewClock()
	rec := tinca.NewRecorder()
	mem := tinca.NewNVM(16<<20, tinca.NVDIMM, clock, rec)
	disk := tinca.NewDisk(1<<20, tinca.NullDisk, clock, rec)
	c, err := tinca.OpenCache(mem, disk, tinca.CacheOptions{})
	if err != nil {
		b.Fatal(err)
	}
	block := make([]byte, tinca.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := c.Begin()
		for j := uint64(0); j < 8; j++ {
			txn.Write(uint64(i%1024)*8+j, block)
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rec.Get(tinca.CounterCLFlush))/float64(b.N), "clflush/commit")
}
