package oltp_test

import (
	"encoding/binary"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/oltp"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

func newEngine(t *testing.T, kind stack.Kind) (*stack.Stack, *oltp.Engine) {
	t.Helper()
	s, err := stack.New(stack.Config{
		Kind:              kind,
		NVMBytes:          8 << 20,
		NVMProfile:        pmem.NVDIMM,
		DiskProfile:       blockdev.Null,
		FSBlocks:          16384,
		GroupCommitBlocks: 1 << 20, // commit only on fsync: one txn per TPC-C txn
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := oltp.Load(s.FS, oltp.Config{Warehouses: 2, CustomersPerDistrict: 60, Items: 200, MaxOrders: 64})
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

func TestTPCCMixRuns(t *testing.T) {
	s, e := newEngine(t, stack.Tinca)
	res, err := e.Run(s.Clock, 1, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 400 {
		t.Fatalf("committed = %d", res.Committed)
	}
	// All five kinds occur.
	for k, n := range res.PerKind {
		if n == 0 {
			t.Fatalf("kind %d never ran", k)
		}
	}
	// Mix roughly matches 45/43/4/4/4.
	no := float64(res.PerKind[0]) / 400
	if no < 0.35 || no > 0.55 {
		t.Fatalf("NewOrder fraction %v", no)
	}
	if err := s.FS.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTPCCFsyncPerTxn(t *testing.T) {
	s, e := newEngine(t, stack.Tinca)
	before := s.Rec.Get(metrics.TxnCommit)
	res, err := e.Run(s.Clock, 1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	commits := s.Rec.Get(metrics.TxnCommit) - before
	// Read-only transactions (OrderStatus, StockLevel ≈ 8%) don't commit;
	// everything else commits exactly once.
	writeTxns := res.PerKind[0] + res.PerKind[1] + res.PerKind[3]
	if commits > writeTxns+5 || commits < writeTxns-5 {
		t.Fatalf("commits = %d, write txns = %d", commits, writeTxns)
	}
}

func TestTPCCUsersContention(t *testing.T) {
	tpm := func(users int) float64 {
		s, e := newEngine(t, stack.Tinca)
		res, err := e.Run(s.Clock, users, 300, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res.TPM
	}
	t5, t60 := tpm(5), tpm(60)
	if t60 >= t5 {
		t.Fatalf("TPM did not drop with users: %v -> %v", t5, t60)
	}
	drop := 1 - t60/t5
	if drop < 0.2 || drop > 0.6 {
		t.Fatalf("drop = %.2f, want ~0.35-0.40", drop)
	}
}

func TestTPCCOnClassic(t *testing.T) {
	s, e := newEngine(t, stack.Classic)
	if _, err := e.Run(s.Clock, 5, 200, 12); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTPCCDeterministic(t *testing.T) {
	run := func() int64 {
		s, e := newEngine(t, stack.Tinca)
		if _, err := e.Run(s.Clock, 10, 150, 3); err != nil {
			t.Fatal(err)
		}
		return int64(s.Clock.Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic simulated time: %d vs %d", a, b)
	}
}

func TestTPCCConsistencyAfterRun(t *testing.T) {
	s, e := newEngine(t, stack.Tinca)
	if _, err := e.Run(s.Clock, 10, 500, 21); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTPCCConsistencyAfterCrash(t *testing.T) {
	// Every read-write TPC-C transaction is one fsync = one storage
	// transaction; after a power failure at any point, the database must
	// still satisfy its invariants (the in-flight transaction is either
	// fully applied or fully revoked).
	rng := sim.NewRand(17)
	crashes := 0
	for trial := int64(0); trial < 10; trial++ {
		s, err := stack.New(stack.Config{
			Kind:              stack.Tinca,
			NVMBytes:          8 << 20,
			NVMProfile:        pmem.NVDIMM,
			DiskProfile:       blockdev.Null,
			FSBlocks:          16384,
			GroupCommitBlocks: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := oltp.Load(s.FS, oltp.Config{Warehouses: 2, CustomersPerDistrict: 60, Items: 200, MaxOrders: 64})
		if err != nil {
			t.Fatal(err)
		}
		s.Mem.ArmCrash(rng.Int63n(25000) + 500)
		crashed, _ := pmem.CatchCrash(func() {
			if _, err := e.Run(s.Clock, 10, 150, trial); err != nil {
				panic(err)
			}
		})
		if !crashed {
			s.Mem.DisarmCrash()
		} else {
			crashes++
		}
		s.Crash(rng, 0.5)
		if err := s.Remount(); err != nil {
			t.Fatalf("trial %d remount: %v", trial, err)
		}
		if err := s.FS.Check(); err != nil {
			t.Fatalf("trial %d fsck: %v", trial, err)
		}
		// Rebind the engine to the recovered file system and verify the
		// database invariants.
		e2, err := oltp.Attach(s.FS, e.Config())
		if err != nil {
			t.Fatalf("trial %d attach: %v", trial, err)
		}
		if err := e2.CheckConsistency(); err != nil {
			t.Fatalf("trial %d (crashed=%v): %v", trial, crashed, err)
		}
		// The database stays usable after recovery.
		if _, err := e2.Run(s.Clock, 5, 20, trial+100); err != nil {
			t.Fatalf("trial %d post-recovery run: %v", trial, err)
		}
	}
	if crashes == 0 {
		t.Fatal("no trial crashed; tighten the window")
	}
	t.Logf("%d/10 trials crashed mid-benchmark, all consistent", crashes)
}

func TestIndividualTransactions(t *testing.T) {
	s, e := newEngine(t, stack.Tinca)
	r := sim.NewRand(3)
	// Each transaction kind runs standalone and preserves invariants.
	for i := 0; i < 25; i++ {
		if err := e.NewOrder(r); err != nil {
			t.Fatalf("NewOrder %d: %v", i, err)
		}
	}
	if err := e.Payment(r); err != nil {
		t.Fatal(err)
	}
	if err := e.OrderStatus(r); err != nil {
		t.Fatal(err)
	}
	if err := e.Delivery(r); err != nil {
		t.Fatal(err)
	}
	if err := e.StockLevel(r); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOrderRingWrapsWithoutDelivery(t *testing.T) {
	// Flood one warehouse with orders far past MaxOrders: NewOrder's
	// ring-reclaim must keep the invariants without any Delivery run.
	s, e := newEngine(t, stack.Tinca)
	r := sim.NewRand(8)
	for i := 0; i < 900; i++ { // 64-order rings per district, ~90/district
		if err := e.NewOrder(r); err != nil {
			t.Fatalf("order %d: %v", i, err)
		}
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	_ = s
}

func TestAttachRequiresLoadedDB(t *testing.T) {
	s, err := stack.New(stack.Config{
		Kind: stack.Tinca, NVMBytes: 4 << 20,
		NVMProfile: pmem.NVDIMM, DiskProfile: blockdev.Null, FSBlocks: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oltp.Attach(s.FS, oltp.Config{}); err == nil {
		t.Fatal("attach to empty file system succeeded")
	}
}

// TestPaymentKeepsWarehouseYTD checks TPC-C consistency condition 1
// straight from the table bytes: after a run of Payments, each
// warehouse's W_YTD (the first 8 bytes of its 96-byte record) equals the
// sum of its ten districts' D_YTD (bytes 16..23 of each 112-byte record).
func TestPaymentKeepsWarehouseYTD(t *testing.T) {
	s, e := newEngine(t, stack.Tinca)
	r := sim.NewRand(5)
	for i := 0; i < 40; i++ {
		if err := e.Payment(r); err != nil {
			t.Fatal(err)
		}
	}
	u64 := func(path string, off uint64) uint64 {
		b := make([]byte, 8)
		if _, err := s.FS.ReadAt(path, off, b); err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint64(b)
	}
	cfg := e.Config()
	for w := 0; w < cfg.Warehouses; w++ {
		var sum uint64
		for d := 0; d < 10; d++ {
			sum += u64(cfg.Dir+"/district.tbl", uint64(w*10+d)*112+16)
		}
		wytd := u64(cfg.Dir+"/warehouse.tbl", uint64(w)*96)
		if sum == 0 {
			t.Fatalf("warehouse %d received no payments", w)
		}
		if wytd != sum {
			t.Fatalf("warehouse %d: W_YTD %d != sum of D_YTD %d", w, wytd, sum)
		}
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
