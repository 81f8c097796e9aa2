package oltp_test

import (
	"testing"

	"tinca/internal/raceflag"
	"tinca/internal/stack"
)

// maxAllocsPerTxn bounds the engine's allocations per transaction over
// the seeded mix below: 1.5x the value measured when it was set (0.9 on
// go1.24). What remains is the core *Txn of each committing transaction.
const maxAllocsPerTxn = 1.35

func TestTPCCAllocationsPerTxn(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	s, e := newEngine(t, stack.Tinca)
	if _, err := e.Run(s.Clock, 1, 200, 11); err != nil { // warm
		t.Fatal(err)
	}
	const txns = 200
	seed := int64(12)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := e.Run(s.Clock, 1, txns, seed); err != nil {
			t.Fatal(err)
		}
		seed++
	}) / txns
	t.Logf("%.1f allocs per TPC-C transaction", allocs)
	if allocs > maxAllocsPerTxn {
		t.Fatalf("%.1f allocs per TPC-C transaction, bound %v", allocs, maxAllocsPerTxn)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
