package core

import (
	"fmt"
	"sync"

	"tinca/internal/bufpool"
	"tinca/internal/flight"
	"tinca/internal/metrics"
)

// Txn is a running transaction (Section 4.4): an ordered set of 4KB block
// updates staged in DRAM. Running transactions are pure DRAM state, so any
// number of them build up concurrently without touching cache locks; only
// Commit enters the (group-) commit pipeline. A Txn is not safe for
// concurrent use by multiple goroutines; use one Txn per writer.
//
// The staged blocks live in a pooled txnStage whose buffers come from
// bufpool; Commit and Abort hand them back exactly once (DESIGN.md §17,
// "Core transaction buffers"). The Txn itself is never pooled, so SealSeq
// stays readable after Commit.
type Txn struct {
	c    *Cache
	st   *txnStage // nil once the transaction finished
	done bool

	// sealGen is the generation of the seal this transaction was
	// committed under (0 until a seal claims it). Written by the sealing
	// goroutine before the seal's commit point.
	sealGen uint64

	// req carries the commit outcome back from the sealing goroutine.
	req commitReq
}

// txnStage is a transaction's DRAM staging: block numbers in first-write
// order and their buffers, parallel. Transactions of up to smallTxn
// blocks find a block by a linear scan; larger ones build an index.
type txnStage struct {
	nos   []uint64
	bufs  [][]byte
	index map[uint64]int32 // position in nos; used only past smallTxn blocks
}

const (
	// smallTxn is the largest transaction that needs no index map.
	smallTxn = 16
	// maxKeptIndex bounds the block index maps kept for reuse (a
	// recycled stage's, a ring's seal dedupe): see resetIndex.
	maxKeptIndex = 256
)

// resetIndex empties an index map that held n entries. clear costs
// O(capacity), so a map that grew past maxKeptIndex is dropped rather
// than cleared for every later, smaller user.
func resetIndex(m map[uint64]int32, n int) map[uint64]int32 {
	if n > maxKeptIndex {
		return nil
	}
	clear(m)
	return m
}

var stagePool = sync.Pool{New: func() any { return new(txnStage) }}

// find returns the position of block no in the stage.
func (st *txnStage) find(no uint64) (int, bool) {
	if len(st.nos) > smallTxn {
		i, ok := st.index[no]
		return int(i), ok
	}
	for i, n := range st.nos {
		if n == no {
			return i, true
		}
	}
	return 0, false
}

// add appends block no staged in buf.
func (st *txnStage) add(no uint64, buf []byte) {
	st.nos = append(st.nos, no)
	st.bufs = append(st.bufs, buf)
	switch n := len(st.nos); {
	case n == smallTxn+1:
		if st.index == nil {
			st.index = make(map[uint64]int32, 2*smallTxn)
		}
		for i, b := range st.nos {
			st.index[b] = int32(i)
		}
	case n > smallTxn+1:
		st.index[no] = int32(n - 1)
	}
}

// releaseStage returns every staged buffer and then the stage itself.
func (c *Cache) releaseStage(st *txnStage) {
	for i, b := range st.bufs {
		c.putTxnBuf(b)
		st.bufs[i] = nil
	}
	if len(st.nos) > smallTxn {
		st.index = resetIndex(st.index, len(st.nos))
	}
	st.nos, st.bufs = st.nos[:0], st.bufs[:0]
	stagePool.Put(st)
}

// getTxnBuf borrows a staging buffer for one block.
func (c *Cache) getTxnBuf() []byte {
	b := bufpool.Get()
	if c.txnBufs != nil {
		c.txnBufs.lend(b)
	}
	return b
}

// putTxnBuf returns a staging buffer; it must not be used afterwards.
func (c *Cache) putTxnBuf(b []byte) {
	if c.txnBufs != nil {
		c.txnBufs.reclaim(b)
	}
	bufpool.Put(b)
}

// txnBufTracker records the staging buffers currently lent to running
// transactions. Open installs one in tincadebug builds (see debugAlloc);
// tests install one to check that every buffer goes back exactly once.
// A return of a buffer that is not out — a double return — panics at the
// culprit's own call site.
type txnBufTracker struct {
	mu  sync.Mutex
	out map[*[BlockSize]byte]struct{}
}

func newTxnBufTracker() *txnBufTracker {
	return &txnBufTracker{out: make(map[*[BlockSize]byte]struct{})}
}

func (k *txnBufTracker) lend(b []byte) {
	p := (*[BlockSize]byte)(b)
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.out[p]; ok {
		panic("core: transaction buffer lent twice")
	}
	k.out[p] = struct{}{}
}

func (k *txnBufTracker) reclaim(b []byte) {
	p := (*[BlockSize]byte)(b)
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.out[p]; !ok {
		panic("core: double return of transaction buffer")
	}
	delete(k.out, p)
}

// outstanding reports how many buffers are lent right now.
func (k *txnBufTracker) outstanding() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.out)
}

// SealSeq returns the sequence number of the seal that committed (or was
// committing) this transaction, or 0 if no seal has claimed it yet. A
// crash harness compares it against the largest value Options.SealHook
// reported: seals at or below that value reached their commit point, so
// every transaction they claimed must be durable; transactions with a
// larger (or zero) SealSeq must be absent. Read it only after Commit
// returned or after the committing goroutines were joined.
func (t *Txn) SealSeq() uint64 { return t.sealGen }

// Begin initiates a running transaction (tinca_init_txn).
func (c *Cache) Begin() *Txn {
	return &Txn{c: c, st: stagePool.Get().(*txnStage)}
}

// Write stages the new contents of disk block no. Writing the same block
// twice in one transaction keeps the latest contents (the file system
// coalesces updates per transaction, as JBD2 does). data is copied, so
// the caller may reuse it as soon as Write returns.
func (t *Txn) Write(no uint64, data []byte) {
	if t.done {
		panic("core: Write on finished transaction")
	}
	if len(data) != BlockSize {
		panic(fmt.Sprintf("core: transaction block must be %d bytes", BlockSize))
	}
	if no > maxDiskBlock {
		panic("core: disk block number exceeds 7 bytes")
	}
	if i, ok := t.st.find(no); ok {
		copy(t.st.bufs[i], data)
		return
	}
	buf := t.c.getTxnBuf()
	copy(buf, data)
	t.st.add(no, buf)
}

// Len reports how many distinct blocks are staged; 0 once the
// transaction finished.
func (t *Txn) Len() int {
	if t.st == nil {
		return 0
	}
	return len(t.st.nos)
}

// finish ends the transaction and hands its staged buffers back. Commit
// defers it, so it also runs while an injected crash unwinds.
func (t *Txn) finish() {
	t.done = true
	if st := t.st; st != nil {
		t.st = nil
		t.c.releaseStage(st)
	}
}

// Abort discards the running transaction (tinca_abort). Nothing has been
// written to NVM for a running transaction, so this is purely a DRAM
// operation; blocks partially committed by a crashed commit are revoked by
// recovery instead. Abort after Commit is a no-op.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.finish()
	t.c.rec.Inc(metrics.TxnAbort)
}

// Commit makes the running transaction durable and atomic following the
// commit protocol of Section 4.4:
//
//  1. for each block: write the data into a newly allocated NVM block
//     (COW for hits) and persist it; atomically persist the block's cache
//     entry with the log role and both NVM locations;
//  2. record the on-disk block number in the ring slot Head points at and
//     advance Head (8B atomic persists);
//  3. after all blocks: switch every block's role to buffer, releasing
//     the previous versions;
//  4. set Tail = Head; this atomic store is the commit point.
//
// In the default configuration concurrently arriving Commits to one ring
// coalesce into a single seal (see seal.go): the protocol's persist order
// is kept but its fences and pointer flips are paid once per batch.
// Ablation configurations keep the paper's one-transaction-at-a-time
// commit.
//
// On success all staged blocks are durable and atomic: after any crash,
// either every block of this transaction is visible or none is. Commit
// finishes the transaction whatever it returns; a later Abort is a no-op.
func (t *Txn) Commit() error {
	if t.done {
		panic("core: Commit on finished transaction")
	}
	defer t.finish()
	c := t.c
	c.checkPoison()
	if c.closed.Load() {
		return ErrClosed
	}
	if len(t.st.nos) == 0 {
		return nil
	}
	if !c.serial {
		// Per-ring capacity checks and routing live in commitRings.
		return c.commitRings(t)
	}
	if len(t.st.nos) > c.lay.RingSlots {
		return ErrTxnTooLarge
	}
	var t0 int64
	if c.obs != nil {
		t0 = c.obs.now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	err := c.commitSerialLocked(t)
	if err == nil {
		c.maybeCheckpoint()
	}
	if c.obs != nil {
		c.obs.phase(c.obs.total, 0, spanSerial, t0, c.obs.gid())
	}
	return err
}

// commitSerialLocked is the paper's one-transaction-at-a-time commit on
// the single ring, serving the ablation configurations (which validate to
// one ring). Caller holds c.mu; the ring's seal lock is taken here so the
// ring pointers keep one guard in every mode.
func (c *Cache) commitSerialLocked(t *Txn) error {
	rs := &c.rings[0]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	t.sealGen = c.gen.Add(1)
	st := t.st
	c.flEmit(flight.EvSerialBegin, 0, t.sealGen, uint64(len(st.nos)), 0)
	// Every slot this commit touches stays pinned (in its block's shard)
	// until the Tail flip below is durable: after the role switch an
	// entry looks like an ordinary dirty buffer, but evicting it — with
	// its disk write-back — before the commit point would let a crash
	// observe a half-committed transaction. unpin releases them, keyed by
	// the block number the pin was registered under (the slot alone is
	// not enough once DisableTxnPin allows mid-commit reuse).
	touched := make([]int32, 0, len(st.nos))
	unpin := func() {
		for k, slot := range touched {
			sh := c.shardOf(st.nos[k])
			sh.mu.Lock()
			delete(sh.pinned, slot)
			sh.mu.Unlock()
		}
	}
	for k, no := range st.nos {
		slot, err := c.commitBlock(no, st.bufs[k])
		if err != nil {
			// Allocation failure mid-commit: the blocks committed so far
			// carry the log role. Persist Tail over the consumed ring
			// range first — Tail is monotonic, so the advance survives a
			// crash, after which the blocks are stray log entries that
			// recovery's sweep revokes; then revoke them live. Head
			// stays where it is: a rollback could not be made durable
			// through the max-recovered pointer slots, and a stale
			// larger Head over revoked entries would fail recovery.
			unpin()
			start := rs.tail
			c.persistTail(0)
			c.revokeRange(start, rs.head)
			c.flEmit(flight.EvSealAbort, 0, t.sealGen, rs.head, rs.head-start)
			c.rec.Inc(metrics.TxnAbort)
			return err
		}
		touched = append(touched, slot)
	}

	// Step 4 of the protocol: role switches for all involved blocks.
	for _, slot := range touched {
		c.roleSwitch(slot)
	}

	// Write-through mode: propagate the committed blocks to disk now and
	// mark them clean; the NVM copy remains authoritative for reads.
	// writeBack coordinates with any write-back the background evictor or
	// destager may have in flight for the same slot.
	if c.opts.WriteThrough {
		buf := bufpool.Get()
		for _, slot := range touched {
			e := c.readEntry(slot)
			if !e.valid {
				continue
			}
			c.writeBack(c.shardOf(e.disk), e.disk, slot, buf)
		}
		bufpool.Put(buf)
	}

	// Step 5: Tail catches up with Head; this ends the transaction.
	c.persistTail(0)
	// After the flip, so this record durable implies the commit durable
	// (the invariant the crash oracle checks against the recovered Tail).
	c.flEmit(flight.EvSerialCommit, 0, t.sealGen, rs.head, uint64(len(st.nos)))
	if c.opts.SealHook != nil {
		c.opts.SealHook(t.sealGen)
	}

	// Committed blocks become the most recently used (Section 4.6 rule 2b).
	// With pinning disabled (ablation) a touched slot may have been
	// evicted and even reused mid-commit, so the touch is skipped.
	if !c.opts.DisableTxnPin {
		for _, slot := range touched {
			e := c.readEntry(slot)
			sh := c.shardOf(e.disk)
			sh.mu.Lock()
			c.touchLocked(sh, slot)
			sh.mu.Unlock()
		}
	}
	unpin()

	c.rec.Inc(metrics.TxnCommit)
	c.rec.Add(metrics.TxnBlocks, int64(len(st.nos)))
	return nil
}

// commitBlock writes one block of the committing transaction (steps 1-3 of
// the protocol) and returns the entry slot used. Serial path only; caller
// holds c.mu and ring 0's seal lock.
func (c *Cache) commitBlock(no uint64, data []byte) (int32, error) {
	var slot int32
	h := shardIdx(no)
	sh := c.shardOf(no)
	sh.mu.Lock()
	i, hit := sh.slot(no)
	var old entry
	if hit {
		old = c.readEntry(i)
		if old.role == RoleLog {
			sh.mu.Unlock()
			panic("core: block committed twice in one transaction")
		}
		// Rule 2 (Section 4.6): pin the hit target inside the same
		// critical section as the lookup — the background evictor only
		// honours pins it can observe under the shard lock, and the
		// allocation below may need to evict. The pin stays until
		// commitSerialLocked's epilogue (or is removed here on failure).
		sh.pinned[i] = true
	}
	sh.mu.Unlock()
	if hit {
		// Write hit: COW block write (Section 4.3). The updated version
		// goes to a newly allocated NVM block; the entry records both
		// locations in one atomic 16B store.
		c.rec.Inc(metrics.CacheWriteHit)
		if c.opts.Ablation == AblationUBJ {
			// UBJ-style commit-in-place: before overwriting the frozen
			// block, copy it aside inside NVM (the memcpy on the critical
			// path the paper criticizes), then update in place.
			nb, err := c.allocBlock(h)
			if err != nil {
				sh.mu.Lock()
				delete(sh.pinned, i)
				sh.mu.Unlock()
				return 0, err
			}
			tmp := bufpool.Get()
			func() {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				// In-place overwrite of the slot's data block: readers must
				// see the whole mutation as one version step.
				c.beginSlotMutate(i)
				c.mem.Load(c.lay.blockOff(old.cur), tmp)
				c.mem.PersistRange(c.lay.blockOff(nb), tmp) // preserve old version
				c.mem.PersistRange(c.lay.blockOff(old.cur), data)
				c.writeEntry(i, entry{valid: true, role: RoleLog, modified: true, disk: no, prev: nb, cur: old.cur})
				c.dirtied[i] = true
				c.endSlotMutate(i)
			}()
			bufpool.Put(tmp)
			slot = i
		} else {
			nb, err := c.allocBlock(h)
			if err != nil {
				sh.mu.Lock()
				delete(sh.pinned, i)
				sh.mu.Unlock()
				return 0, err
			}
			c.persistBlockData(c.lay.blockOff(nb), data)
			func() {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				// COW redirect: the data at old.cur is untouched, but the
				// entry flips to RoleLog — bump so an in-flight fast read
				// re-decides (and lands on the locked path).
				c.beginSlotMutate(i)
				c.writeEntry(i, entry{valid: true, role: RoleLog, modified: true, disk: no, prev: old.cur, cur: nb})
				c.dirtied[i] = true
				c.endSlotMutate(i)
			}()
			slot = i
		}
		c.rec.Inc(metrics.TxnCOWBlocks)
	} else {
		// Write miss: no previous version; the entry is created with the
		// FRESH tag so recovery knows to delete rather than roll back.
		c.rec.Inc(metrics.CacheWriteMiss)
		nb, err := c.allocBlock(h)
		if err != nil {
			return 0, err
		}
		c.persistBlockData(c.lay.blockOff(nb), data)
		i := c.allocSlot(h)
		func() {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if j, ok := sh.slot(no); ok {
				// A concurrent read fill installed this block between the
				// lookup above and now. The commit's version supersedes
				// the clean filled copy.
				c.dropFilledLocked(sh, no, j)
			}
			c.beginSlotMutate(i)
			c.writeEntry(i, entry{valid: true, role: RoleLog, modified: true, disk: no, prev: Fresh, cur: nb})
			c.endSlotMutate(i)
			sh.mapStore(no, i)
			c.pushFrontLocked(sh, i)
			sh.pinned[i] = true
			c.dirtied[i] = true
		}()
		slot = i
	}

	if c.opts.Ablation == AblationDoubleWrite {
		// Journaling-style double write inside the NVM cache: persist a
		// second, redundant copy of the block (the log copy a journal
		// would keep). The copy is immediately freed; only the cost is
		// modeled, matching what the role switch saves.
		if nb, err := c.allocBlock(h); err == nil {
			c.mem.PersistRange(c.lay.blockOff(nb), data)
			c.alloc.pushBlock(nb)
		}
	}

	// Record the block number in the ring and move Head (8B atomic writes
	// each followed by clflush+sfence).
	c.mem.Persist8(c.lay.ringSlotOff(c.rings[0].head), no)
	c.advanceHead(0, 1)
	return slot, nil
}

// roleSwitch converts the committed block in slot from log to buffer role
// and reclaims the previous version (Section 4.3). Serial path only;
// caller holds c.mu.
func (c *Cache) roleSwitch(slot int32) {
	e := c.readEntry(slot)
	if !e.valid || e.role != RoleLog {
		if c.opts.DisableTxnPin {
			// Replacement rule 2 is disabled (ablation mode): the block
			// was legally evicted mid-commit and its slot may be reused.
			return
		}
		panic("core: role switch on non-log entry")
	}
	prev := e.prev
	e.role = RoleBuffer
	e.prev = Fresh
	func() {
		sh := c.shardOf(e.disk)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		// Role switch log→buffer: after the bump pair a fast reader can
		// serve the slot again.
		c.beginSlotMutate(slot)
		c.writeEntry(slot, e)
		c.endSlotMutate(slot)
	}()
	if prev != Fresh {
		c.freeDataBlock(prev)
	}
}

// persistBlockData makes committed block data durable at off — unless the
// harness-validation fault asked for the flush to be (incorrectly)
// skipped, leaving the store volatile while the rest of the protocol
// proceeds as if it were durable.
func (c *Cache) persistBlockData(off int, data []byte) {
	if c.opts.Fault == FaultSkipDataFlush {
		c.mem.Store(off, data)
		return
	}
	c.mem.PersistRange(off, data)
}

// CommitBlocks is a convenience wrapper committing the given blocks as one
// transaction. The bufs slice parallels nos.
func (c *Cache) CommitBlocks(nos []uint64, bufs [][]byte) error {
	t := c.Begin()
	for i, no := range nos {
		t.Write(no, bufs[i])
	}
	return t.Commit()
}
