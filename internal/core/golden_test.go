package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// The golden-image test pins what the commit protocol leaves behind —
// the persistent NVM image, the simulated clock and the cache counters —
// for seeded single-threaded commit scripts, and for a crash inside the
// last seal followed by recovery. Any refactor of the seal or recovery
// code must keep every hash; a deliberate on-NVM format or cost change
// regenerates them (the failure message prints the new value).

// goldenCases lists the configurations the hashes pin. Each entry has
// three hashes: the clean script, a crash in the undo window (ring
// records persisted, no role switch yet) and a crash in the redo window
// (some role switch durable, Tail not yet flipped).
var goldenCases = []struct {
	name              string
	opts              Options
	clean, undo, redo string
}{
	{"r1", Options{RingBytes: 1024},
		"71a0d9f32955a0a0", "1366b141ad87aa9e", "d5a2f086573b21d3"},
	{"r1-rotate", Options{RingBytes: 1024, RotatePointers: true},
		"5f0ab29a6c47c005", "2ccb4443f51a5532", "7f2908d8009c4800"},
	{"r1-flight", Options{RingBytes: 1024, FlightRecorder: true},
		"6c1d363b5e166207", "5ecbb17c696d66c9", "7804168a913a7ed8"},
	{"r1-ckpt", Options{RingBytes: 1024, Checkpoint: true, CheckpointIntervalNS: 1},
		"9ba0fd1b08f0ccaa", "84ba9cffc0c40d0f", "5e03c2692c21e7c0"},
	{"r1-writethrough", Options{RingBytes: 1024, WriteThrough: true},
		"6ac48c1e707e43f0", "1b82cef27c5b15cc", "d1b748dc34ba0261"},
	{"r4", Options{RingBytes: 1024, CommitRings: 4},
		"bc7fd5e7efe0b84d", "2b132d4de0aeb9ac", "c0a338307a89c34b"},
	{"r4-ckpt", Options{RingBytes: 1024, CommitRings: 4, Checkpoint: true, CheckpointIntervalNS: 1},
		"6a75c1b32d7eeae3", "11c30c62119be900", "85290b8ede07879b"},
}

// goldenRun is one scripted cache lifetime on fresh devices.
type goldenRun struct {
	clock *sim.Clock
	mem   *pmem.Device
	disk  *blockdev.Device
	cache *Cache
}

func newGoldenRun(t *testing.T, opts Options) *goldenRun {
	t.Helper()
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	g := &goldenRun{
		clock: clock,
		mem:   pmem.New(256<<10, pmem.NVDIMM, clock, rec),
		disk:  blockdev.New(1<<12, blockdev.Null, clock, rec),
	}
	c, err := Open(g.mem, g.disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.cache = c
	return g
}

// script runs 40 seeded transactions of 1–6 blocks over a 96-block
// working set (larger than the cache, so evictions and write-backs
// happen) with interleaved reads.
func (g *goldenRun) script(t *testing.T) {
	t.Helper()
	rng := sim.NewRand(7)
	p := make([]byte, BlockSize)
	for i := 0; i < 40; i++ {
		txn := g.cache.Begin()
		for j, n := 0, 1+rng.Intn(6); j < n; j++ {
			txn.Write(uint64(rng.Intn(96)), blockOf(byte(rng.Intn(256))))
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if err := g.cache.Read(uint64(rng.Intn(128)), p); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

// victim is the crash target: three hits (COW) and three misses (fresh).
func (g *goldenRun) victim() error {
	txn := g.cache.Begin()
	for _, no := range []uint64{1, 2, 3, 300, 301, 302} {
		txn.Write(no, blockOf('V'))
	}
	return txn.Commit()
}

// digest hashes the persistent image, the clock and every nonzero
// counter of the cache (and the recovery breakdown, when one ran).
//
// On multi-ring layouts the checkpoint frame headers' head/tail words
// are masked, together with the header checksum that covers them: they
// are write-only diagnostics that no recovery path reads.
func (g *goldenRun) digest() string {
	h := sha256.New()
	img := g.mem.SnapshotPersist()
	if lay := g.cache.Layout(); lay.Rings > 1 && lay.CkptJournalSlots > 0 {
		for f := 0; f < 2; f++ {
			off := lay.ckptFrameOff(f)
			clear(img[off+16 : off+32])
			clear(img[off+56 : off+64])
		}
	}
	h.Write(img)
	fmt.Fprintf(h, "clock=%d;", g.clock.Now())
	hashNonzero(h, g.cache.Stats())
	hashNonzero(h, g.cache.RecoveryStats())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hashNonzero writes every nonzero field of struct v as name=value, so a
// counter added later (zero in these scripts) leaves the hashes alone.
func hashNonzero(h hash.Hash, v any) {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); !f.IsZero() {
			fmt.Fprintf(h, "%s=%v;", rv.Type().Field(i).Name, f.Interface())
		}
	}
}

func TestGoldenImages(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := newGoldenRun(t, tc.opts)
			g.script(t)
			if err := g.victim(); err != nil {
				t.Fatal(err)
			}
			if err := g.cache.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			goldenCheck(t, "clean", g.digest(), tc.clean)

			// Walk the victim seal's crash boundaries; the first boundary
			// whose recovery revokes ring-named entries is the undo case,
			// the first that completes role switches is the redo case.
			var undo, redo string
			for k := int64(0); undo == "" || redo == ""; k++ {
				g := newGoldenRun(t, tc.opts)
				g.script(t)
				g.mem.ArmCrash(k)
				crashed, _ := pmem.CatchCrash(func() { _ = g.victim() })
				if !crashed {
					t.Fatalf("victim seal finished at boundary %d without an undo and a redo crash (undo %q, redo %q)", k, undo, redo)
				}
				g.mem.Crash(nil, 0)
				c, err := Open(g.mem, g.disk, tc.opts)
				if err != nil {
					t.Fatalf("k=%d: reopen: %v", k, err)
				}
				g.cache = c
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				rs := c.RecoveryStats()
				switch {
				case undo == "" && rs.EntriesUndone > 0:
					undo = g.digest()
				case redo == "" && rs.Redo:
					redo = g.digest()
				}
			}
			goldenCheck(t, "undo", undo, tc.undo)
			goldenCheck(t, "redo", redo, tc.redo)
		})
	}
}

func goldenCheck(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s digest = %q, want %q", what, got, want)
	}
}
