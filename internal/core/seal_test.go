package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// fallbackCommitters and fallbackBlocks shape the allocation-failure
// workload: three committers own four blocks each, all in ring 0 (block
// numbers ≡ 0 mod 4), so their transactions share one commit queue.
const (
	fallbackCommitters = 3
	fallbackBlocks     = 4
	fallbackTxns       = 30
)

func fallbackBlock(w, j int) uint64 { return uint64(4 * (fallbackBlocks*w + j)) }

// fallbackStamp is the value committer w's i-th transaction writes into
// the first word of every block it owns; 0 means "never committed".
func fallbackStamp(w, i int) uint64 { return uint64(w+1)<<32 | uint64(i+1) }

// fallbackState is what each committer knows about its own blocks: the
// stamp of its last acknowledged commit, and the stamp of a commit that
// was in flight when a crash fired (both 0 when none).
type fallbackState struct {
	acked, inflight [fallbackCommitters]uint64
}

// runFallbackCommitters runs the committers concurrently until each has
// issued fallbackTxns commits or a crash stopped it. Every commit must
// either succeed or fail with ErrNoSpace.
func runFallbackCommitters(t *testing.T, c *Cache, st *fallbackState) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, fallbackCommitters)
	for w := 0; w < fallbackCommitters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, BlockSize)
			pmem.CatchCrash(func() {
				for i := 0; i < fallbackTxns; i++ {
					stamp := fallbackStamp(w, i)
					binary.LittleEndian.PutUint64(buf, stamp)
					txn := c.Begin()
					for j := 0; j < fallbackBlocks; j++ {
						txn.Write(fallbackBlock(w, j), buf)
					}
					st.inflight[w] = stamp
					err := txn.Commit()
					st.inflight[w] = 0
					switch {
					case err == nil:
						st.acked[w] = stamp
					case errors.Is(err, ErrNoSpace):
					default:
						errs[w] = fmt.Errorf("committer %d txn %d: %w", w, i, err)
						return
					}
				}
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkFallbackBlocks verifies atomicity per committer: all of its blocks
// hold one stamp, and that stamp is its last acknowledged commit or — only
// after a crash — the commit that was in flight.
func checkFallbackBlocks(t *testing.T, c *Cache, st *fallbackState) {
	t.Helper()
	for w := 0; w < fallbackCommitters; w++ {
		var got [fallbackBlocks]uint64
		for j := range got {
			got[j] = binary.LittleEndian.Uint64(mustRead(t, c, fallbackBlock(w, j)))
		}
		for j := range got {
			if got[j] != got[0] {
				t.Fatalf("committer %d torn across its blocks: %#x", w, got)
			}
		}
		if got[0] != st.acked[w] && (st.inflight[w] == 0 || got[0] != st.inflight[w]) {
			t.Fatalf("committer %d reads stamp %#x, want acked %#x (in flight %#x)", w, got[0], st.acked[w], st.inflight[w])
		}
	}
}

// TestSealAllocFallback drives the seal's allocation-failure fallback. The
// cache holds 10 blocks; a merged batch of two 4-block transactions whose
// targets are mostly resident needs its hits pinned plus 8 fresh blocks,
// which cannot fit, while each transaction alone always fits. The seal
// must unwind the merged plan and commit the transactions one seal each.
// Then a crash mid-run must leave only acknowledged (or the in-flight,
// unacknowledged) transactions visible, each atomically.
func TestSealAllocFallback(t *testing.T) {
	for _, rings := range []int{1, 4} {
		rings := rings
		t.Run(fmt.Sprintf("rings=%d", rings), func(t *testing.T) {
			opts := Options{
				RingBytes:   512,
				CommitRings: rings,
				Observe:     true,
				// Pairs of transactions: the leader waits for a second
				// committer before sealing.
				GroupCommit: GroupCommit{MaxBatch: 2, MaxWaitNS: int64(2 * time.Millisecond)},
			}
			open := func() (*pmem.Device, *blockdev.Device, *Cache) {
				clock := sim.NewClock()
				rec := metrics.NewRecorder()
				mem := pmem.New(11*BlockSize, pmem.NVDIMM, clock, rec)
				disk := blockdev.New(1<<10, blockdev.Null, clock, rec)
				c, err := Open(mem, disk, opts)
				if err != nil {
					t.Fatal(err)
				}
				if c.Capacity() != 10 {
					t.Fatalf("capacity %d, want 10", c.Capacity())
				}
				return mem, disk, c
			}

			// Clean run: the fallback must fire and keep every commit atomic.
			mem, _, c := open()
			var st fallbackState
			ops0 := mem.PersistOps()
			runFallbackCommitters(t, c, &st)
			runOps := mem.PersistOps() - ops0
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			checkFallbackBlocks(t, c, &st)
			batches := c.rec.Hist(metrics.HistCommitWait).Snapshot().Count
			seals := c.rec.Hist(metrics.HistCommitSeal).Snapshot().Count
			if seals <= batches {
				t.Fatalf("%d seals from %d batches: the merged-batch fallback never split a batch", seals, batches)
			}

			// Crash runs at a few points of the same workload.
			for _, frac := range []int64{3, 2} {
				mem, disk, c := open()
				var st fallbackState
				mem.ArmCrash(runOps / frac)
				runFallbackCommitters(t, c, &st)
				if c.poisoned.Load() == nil {
					t.Fatalf("crash armed at 1/%d of the run never fired", frac)
				}
				mem.Crash(nil, 0)
				c, err := Open(mem, disk, opts)
				if err != nil {
					t.Fatalf("reopen after crash at 1/%d: %v", frac, err)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				checkFallbackBlocks(t, c, &st)
			}
		})
	}
}
