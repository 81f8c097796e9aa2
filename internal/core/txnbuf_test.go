package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tinca/internal/pmem"
	"tinca/internal/raceflag"
)

// trackBufs installs a transaction-buffer tracker on c (tincadebug builds
// install one at Open already) and returns it.
func trackBufs(c *Cache) *txnBufTracker {
	if c.txnBufs == nil {
		c.txnBufs = newTxnBufTracker()
	}
	return c.txnBufs
}

func requireNoOutstandingBufs(t *testing.T, k *txnBufTracker, what string) {
	t.Helper()
	if n := k.outstanding(); n != 0 {
		t.Fatalf("%s: %d transaction buffers never returned", what, n)
	}
}

// Allocation bounds of one steady-state commit (Begin, Write per block,
// Commit), each 1.5x the value measured when it was set: 1 allocation —
// the caller-owned *Txn — in every case on go1.24.
const (
	maxCommitAllocs1Block    = 1.5
	maxCommitAllocs8Blocks   = 1.5
	maxCommitAllocsCrossRing = 1.5
)

func TestCommitAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	cases := []struct {
		name  string
		rings int
		nos   []uint64
		bound float64
	}{
		// Block numbers ≡ 0 mod 4 share ring 0 at R=4: single-ring seals.
		{"R=1/1-block", 1, []uint64{8}, maxCommitAllocs1Block},
		{"R=1/8-block", 1, []uint64{0, 4, 8, 12, 16, 20, 24, 28}, maxCommitAllocs8Blocks},
		{"R=4/1-block", 4, []uint64{8}, maxCommitAllocs1Block},
		{"R=4/8-block", 4, []uint64{0, 4, 8, 12, 16, 20, 24, 28}, maxCommitAllocs8Blocks},
		{"R=4/cross-ring", 4, []uint64{0, 1, 2, 3, 4, 5, 6, 7}, maxCommitAllocsCrossRing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 4<<20, Options{CommitRings: tc.rings})
			data := blockOf(7)
			commit := func() {
				txn := r.cache.Begin()
				for _, no := range tc.nos {
					txn.Write(no, data)
				}
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				commit() // warm: resident blocks, pooled stage and scratch
			}
			allocs := testing.AllocsPerRun(200, commit)
			t.Logf("%s commit: %v allocs", tc.name, allocs)
			if allocs > tc.bound {
				t.Fatalf("%s commit allocates %v times, bound %v", tc.name, allocs, tc.bound)
			}
		})
	}
}

// pattern fills p with committer w's i-th version: every 8-byte word is
// the stamp mixed with its index, so a block holding another
// transaction's buffer, or parts of two, fails patternStamp.
func pattern(p []byte, w, i int) {
	stamp := uint64(w+1)<<32 | uint64(i+1)
	for k := 0; k < BlockSize/8; k++ {
		binary.LittleEndian.PutUint64(p[8*k:], stamp^uint64(k)*0x9E3779B97F4A7C15)
	}
}

// patternStamp decodes a block written by pattern: its committer and
// version (0, 0 for a never-written block), or ok=false when it is torn.
func patternStamp(p []byte) (w, i int, ok bool) {
	stamp := binary.LittleEndian.Uint64(p)
	for k := 0; k < BlockSize/8; k++ {
		want := stamp ^ uint64(k)*0x9E3779B97F4A7C15
		if stamp == 0 {
			want = 0
		}
		if binary.LittleEndian.Uint64(p[8*k:]) != want {
			return 0, 0, false
		}
	}
	if stamp == 0 {
		return -1, 0, true
	}
	return int(stamp>>32) - 1, int(uint32(stamp)), true
}

// TestConcurrentCommitBuffersStayPrivate runs committers whose
// transactions share rings — single-ring ones that batch in one commit
// queue, and cross-ring ones — each writing its own per-transaction
// pattern from one reused source buffer, while readers check that every
// block holds exactly one version of its owner's pattern and never moves
// backwards. A staged buffer returned to the pool while a seal still
// needed it would surface as a foreign or torn block. Run it under -race.
func TestConcurrentCommitBuffersStayPrivate(t *testing.T) {
	const committers, readers, txns, blocks = 4, 2, 150, 8
	r := newRig(t, 8<<20, Options{CommitRings: 4})
	bufs := trackBufs(r.cache)
	// Committer w owns blocks 64w .. 64w+7: eight consecutive blocks span
	// all four rings, the pair 64w, 64w+4 sits on ring 0 with every other
	// committer's pair.
	owned := func(w, j int) uint64 { return uint64(64*w + j) }

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, committers+readers)
	for w := 0; w < committers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]byte, BlockSize)
			for i := 0; i < txns; i++ {
				txn := r.cache.Begin()
				pattern(src, w, i)
				for j := 0; j < blocks; j++ {
					if i%2 == 1 && j%4 != 0 {
						continue // odd versions: the ring-0 pair only
					}
					txn.Write(owned(w, j), src)
				}
				clear(src) // Write copied; the source is the caller's again
				if err := txn.Commit(); err != nil {
					errs <- fmt.Errorf("committer %d txn %d: %w", w, i, err)
					return
				}
			}
		}()
	}
	var rwg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			p := make([]byte, BlockSize)
			var last [committers][blocks]int
			for !stop.Load() {
				for w := 0; w < committers; w++ {
					for j := 0; j < blocks; j++ {
						if err := r.cache.Read(owned(w, j), p); err != nil {
							errs <- err
							return
						}
						ow, i, ok := patternStamp(p)
						switch {
						case !ok:
							errs <- fmt.Errorf("block %d torn", owned(w, j))
							return
						case ow == -1 && last[w][j] == 0:
						case ow != w:
							errs <- fmt.Errorf("block %d of committer %d holds committer %d's data", owned(w, j), w, ow)
							return
						case i < last[w][j]:
							errs <- fmt.Errorf("block %d went back from version %d to %d", owned(w, j), last[w][j], i)
							return
						default:
							last[w][j] = i
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every block ends at its committer's last version that wrote it.
	p := make([]byte, BlockSize)
	for w := 0; w < committers; w++ {
		for j := 0; j < blocks; j++ {
			if err := r.cache.Read(owned(w, j), p); err != nil {
				t.Fatal(err)
			}
			want := txns
			if j%4 != 0 {
				want = txns - 1 // the last odd version skipped it
			}
			if ow, i, ok := patternStamp(p); !ok || ow != w || i != want {
				t.Fatalf("block %d: committer %d version %d (ok %v), want committer %d version %d", owned(w, j), ow, i, ok, w, want)
			}
		}
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	requireNoOutstandingBufs(t, bufs, "concurrent commits")
}

// TestTxnBuffersReturnedOnEveryPath checks that every way a transaction
// ends hands each staged buffer back exactly once: the tracker panics on
// a second return, and counts buffers never returned.
func TestTxnBuffersReturnedOnEveryPath(t *testing.T) {
	data := blockOf(3)
	stage := func(c *Cache, nos ...uint64) *Txn {
		txn := c.Begin()
		for _, no := range nos {
			txn.Write(no, data)
			txn.Write(no, data) // a rewrite reuses the block's buffer
		}
		return txn
	}
	span := func(n int) []uint64 {
		nos := make([]uint64, n)
		for i := range nos {
			nos[i] = uint64(4 * i) // one ring at R=4
		}
		return nos
	}

	for _, rings := range []int{1, 4} {
		t.Run(fmt.Sprintf("rings=%d", rings), func(t *testing.T) {
			opts := Options{CommitRings: rings, RingBytes: 4096}
			r := newRig(t, 64*BlockSize, opts)
			bufs := trackBufs(r.cache)
			slots := r.cache.lay.RingSlots

			stage(r.cache, 1, 2).Abort()
			requireNoOutstandingBufs(t, bufs, "Abort")

			if err := stage(r.cache).Commit(); err != nil {
				t.Fatal(err)
			}
			// More than a ring holds, then more than a large ring's
			// stage keeps an index for.
			for _, n := range []int{smallTxn + 1, slots} {
				txn := stage(r.cache, span(n)...)
				if err := txn.Commit(); err != nil && !errors.Is(err, ErrNoSpace) {
					t.Fatalf("%d-block commit: %v", n, err)
				}
				txn.Abort() // after Commit: a no-op
				requireNoOutstandingBufs(t, bufs, fmt.Sprintf("%d-block commit", n))
			}

			txn := stage(r.cache, span(slots+1)...)
			if err := txn.Commit(); !errors.Is(err, ErrTxnTooLarge) {
				t.Fatalf("oversized commit: err = %v, want ErrTxnTooLarge", err)
			}
			txn.Abort()
			requireNoOutstandingBufs(t, bufs, "ErrTxnTooLarge")

			// A transaction larger than the whole cache but within the
			// ring fails allocation — with the merged plan and again as a
			// solo seal — then the caller aborts it, as the FS does.
			if capacity := r.cache.Capacity(); capacity+1 <= slots {
				txn := stage(r.cache, span(capacity+1)...)
				if err := txn.Commit(); !errors.Is(err, ErrNoSpace) {
					t.Fatalf("over-capacity commit: err = %v, want ErrNoSpace", err)
				}
				txn.Abort()
				requireNoOutstandingBufs(t, bufs, "ErrNoSpace")
			} else {
				t.Fatalf("capacity %d leaves no room for an ErrNoSpace commit within %d slots", capacity, slots)
			}
			if err := r.cache.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			// An injected crash mid-seal unwinds through Commit.
			r.mem.ArmCrash(10)
			crashed, _ := pmem.CatchCrash(func() {
				_ = stage(r.cache, 0, 4, 8).Commit()
			})
			if !crashed {
				t.Fatal("armed crash never fired")
			}
			requireNoOutstandingBufs(t, bufs, "crash mid-seal")

			r.mem.Crash(nil, 0)
			r.reopen(t, opts)
			bufs = trackBufs(r.cache)
			if err := r.cache.Close(); err != nil {
				t.Fatal(err)
			}
			txn = stage(r.cache, 1)
			if err := txn.Commit(); !errors.Is(err, ErrClosed) {
				t.Fatalf("commit after Close: err = %v, want ErrClosed", err)
			}
			requireNoOutstandingBufs(t, bufs, "ErrClosed")
		})
	}

	t.Run("serial", func(t *testing.T) {
		opts := Options{Ablation: AblationDoubleWrite, RingBytes: 512}
		r := newRig(t, 64*BlockSize, opts)
		bufs := trackBufs(r.cache)
		if err := stage(r.cache, 1, 2, 3).Commit(); err != nil {
			t.Fatal(err)
		}
		txn := stage(r.cache, span(r.cache.lay.RingSlots+1)...)
		if err := txn.Commit(); !errors.Is(err, ErrTxnTooLarge) {
			t.Fatalf("oversized serial commit: err = %v, want ErrTxnTooLarge", err)
		}
		requireNoOutstandingBufs(t, bufs, "serial commits")
	})
}

// TestTxnBufDoubleReturnPanics checks the tracker itself: a second return
// of one buffer panics at the culprit.
func TestTxnBufDoubleReturnPanics(t *testing.T) {
	r := newRig(t, 4<<20, Options{})
	trackBufs(r.cache)
	b := r.cache.getTxnBuf()
	r.cache.putTxnBuf(b)
	defer func() {
		if v := recover(); v != "core: double return of transaction buffer" {
			t.Fatalf("second return: recovered %v", v)
		}
	}()
	r.cache.putTxnBuf(b)
}
