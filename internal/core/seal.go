// The commit seal (DESIGN.md §8).
//
// Every Txn.Commit outside the ablation designs goes through one seal.
// The NVM log is split into Layout.Rings independent per-shard rings —
// one by default, the paper's single ring. Ring r serializes the blocks
// of shards congruent to r mod R, owns its own persistent Head/Tail
// pointer pair and runs its own leader/follower group commit, so
// transactions touching disjoint rings seal fully in parallel.
//
// The paper's protocol (Section 4.4) pays, per transaction, one fence per
// block data write, one per entry persist, two per ring record (slot +
// Head), one per role-switch batch and one for the Tail flip. A seal runs
// the same five phases once for a whole batch of concurrently arriving
// transactions:
//
//	A. data    — every block of every txn stored + flushed, ONE fence
//	B. entries — every entry 16B-stored + flushed (log role), ONE fence
//	C. ring    — every ring record stored + flushed, ONE fence, then ONE
//	             Head persist per participating ring
//	D. switch  — every entry switched to buffer role, ONE fence
//	E. tail    — ONE Tail persist per participating ring, in index order:
//	             the commit point for the whole batch
//
// so the fence/pointer cost is amortized over the batch, and duplicate
// blocks across the batch are absorbed into a single NVM write (the
// NVLog-style sync absorption that gives group commit its throughput).
//
// Ring records. With one ring a record is the paper's 8B block number:
// Head order is the commit order. With R > 1 a record is a 16B {block,
// generation} pair persisted by one failure-atomic Store16, because only
// the global generation counter orders seals across rings. The encode in
// phase C (storeRingRecord) and the decode in recovery's ring scan
// (loadRingRecord) are the only code that depends on the ring count.
//
// Ordering argument (why recovery replays a coalesced seal identically to
// N sequential seals): recovery classifies the crash solely by each
// ring's range (Tail, Head) and the roles of the entries it names. The
// batch keeps exactly the paper's persist order — data before entry,
// entry before ring record, ring record before Head, Head before any role
// switch, every switch fenced before Tail. A crash therefore lands in one
// of the same three states recovery already distinguishes: stray log
// entries with no ring record (revoked by the sweep), a populated ring
// range with no switched entry (undo), or a partially switched range
// (redo). The batch is one transaction to recovery; its all-or-nothing
// outcome applies to every absorbed transaction at once, which is a legal
// serial schedule because none of them was acknowledged before Tail
// flipped.
//
// Generations: the seal draws gen = c.gen.Add(1) after acquiring every
// participating ring's seal lock, so within each ring the record
// generations are strictly increasing and recovery can merge the rings
// back into one total commit order. The generation doubles as the seal
// sequence number (Txn.SealSeq, Options.SealHook, flight records).
//
// Cross-ring transactions take a solo seal that locks their rings in
// index order (deadlock-free against every other seal) and stamp one
// generation in every participating ring; the commit event fires after
// the LAST ring's Tail flip. A crash between two rings' Tail persists (or
// anywhere at/after the first role switch) is resolved by ROLLING
// FORWARD: phase D freed the previous COW versions, so revocation is no
// longer possible, and redo is legal because the seal was never
// acknowledged. A crash before any role switch revokes the whole
// transaction across all its rings (the pending generations plus the
// stray-entry sweep cover rings whose records or Head persists never
// landed). See recovery.go for the replay.
//
// Concurrency shape: there is no dedicated committer goroutine. The first
// committer to find its ring idle becomes the leader and seals the batch
// on its own stack (leader/follower, as in classic group commit). This
// keeps the simulated-crash machinery honest: an injected crash panics
// out of a committing caller, exactly as the single-threaded harness
// expects, and the cache poisons itself so every follower and later
// caller observes the crash too. The seal never takes c.mu: the ring
// locks provide the seal-vs-seal exclusion (two seals sharing a block
// share its ring), the shard locks protect per-entry state, and the
// allocator and destage queue are internally synchronized. Lock order:
// ring seal locks in index order, then shard locks, then the checkpoint
// writer's k.mu, then the device.
package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"tinca/internal/bufpool"
	"tinca/internal/flight"
	"tinca/internal/metrics"
)

// ringState is the DRAM side of one commit ring.
type ringState struct {
	// mu is the ring's seal lock: it guards the ring's persistent
	// Head/Tail pair, its record region and the cached head/tail below.
	// A seal holds the locks of every participating ring, acquired in
	// index order, for the whole five-phase protocol.
	mu         sync.Mutex
	head, tail uint64 // cached copies of the persistent pointers

	// Leader/follower queue for the ring's single-ring commits.
	qmu   sync.Mutex
	qcond *sync.Cond
	queue []*commitReq
	busy  bool

	// Resolved counter cells (per-ring names) so the hot path never pays
	// a registry lookup: seals counts this ring's seals, depth is the
	// queue-depth gauge (+1 enqueue, -1 when a seal claims the request).
	seals, depth *atomic.Int64
}

func (rs *ringState) init(rec *metrics.Recorder, r int) {
	rs.qcond = sync.NewCond(&rs.qmu)
	rs.seals = rec.Counter(metrics.RingSealName(r))
	rs.depth = rec.Counter(metrics.RingQueueDepthName(r))
}

// commitReq is one transaction waiting in a ring's commit queue. err and
// pv are written by the leader before done is set (under the ring's qmu),
// so the owning goroutine may read them once it observes done.
type commitReq struct {
	t    *Txn
	err  error
	pv   any // injected-crash panic to re-raise on the owner's goroutine
	done bool
}

// planBlock is one distinct disk block of the merged batch write set.
type planBlock struct {
	no        uint64
	data      []byte // winning (last-writer) contents
	slot      int32  // entry slot (existing for hits, fresh for misses)
	nb        uint32 // newly allocated NVM data block
	prev      uint32 // previous NVM block for hits, Fresh for misses
	hit       bool
	allocated bool // phase 0 reached this block (nb/slot are live)
}

// ringOf maps a disk block to its commit ring: shardIdx(no) mod R, which
// for the power-of-two R dividing shardCount is a mask.
func (c *Cache) ringOf(no uint64) int {
	return int(no & uint64(len(c.rings)-1))
}

// commitRings is the Commit entry point outside the ablation designs:
// route a single-ring transaction to its ring's leader/follower queue, a
// cross-ring transaction to a solo multi-ring seal.
func (c *Cache) commitRings(t *Txn) error {
	var tEnq int64
	if c.obs != nil {
		tEnq = c.obs.now()
	}
	// Per-ring block counts decide the route and the size check — the
	// capacity bound is per ring, not global.
	var counts [shardCount]int
	rings := 0
	first := -1
	for _, no := range t.order {
		r := c.ringOf(no)
		if counts[r] == 0 {
			rings++
			if first < 0 || r < first {
				first = r
			}
		}
		counts[r]++
	}
	for r := range c.rings {
		if counts[r] > c.lay.RingSlots {
			return ErrTxnTooLarge
		}
	}
	var err error
	if rings == 1 {
		err = c.ringGroupCommit(first, t)
	} else {
		err = c.commitCrossRing(t, counts[:len(c.rings)])
	}
	// Checkpoint trigger: must run with NO ring locks held (it acquires
	// all of them in index order), so it lives here rather than inside
	// the seal.
	c.maybeCheckpoint()
	t.done = true
	if c.obs != nil {
		c.obs.phase(c.obs.total, 0, spanCommit, tEnq, c.obs.gid())
	}
	return err
}

// ringGroupCommit enqueues t on ring r and waits until some leader
// (possibly this goroutine) seals it. Returns the transaction's outcome;
// re-raises a crash panic captured by the leader.
func (c *Cache) ringGroupCommit(r int, t *Txn) error {
	rs := &c.rings[r]
	req := &commitReq{t: t}
	rs.qmu.Lock()
	rs.queue = append(rs.queue, req)
	rs.depth.Add(1)
	for !req.done {
		if rs.busy {
			rs.qcond.Wait()
			continue
		}
		// Become the leader for the next batch.
		rs.busy = true
		var tWait int64
		if c.obs != nil {
			tWait = c.obs.now()
		}
		if w := c.opts.GroupCommit.MaxWaitNS; w > 0 && len(rs.queue) < c.opts.groupBatch() {
			// Optional batch-formation window (real time; the simulated
			// clock never advances while sleeping).
			rs.qmu.Unlock()
			time.Sleep(time.Duration(w) * time.Nanosecond)
			rs.qmu.Lock()
		}
		batch := c.takeRingBatchLocked(rs)
		rs.depth.Add(-int64(len(batch)))
		rs.qmu.Unlock()

		// Observability: the leader stamps the batch-formation wait (sim
		// time other goroutines charged while this leader held the window
		// open), then times each seal phase inside sealRings.
		var sealID uint64
		var g int64
		if c.obs != nil {
			sealID = c.obs.seals.Add(1)
			g = c.obs.gid()
			c.obs.phase(c.obs.wait, sealID, spanWait, tWait, g)
		}

		rs.mu.Lock()
		pv := c.runRingSealLocked([]int{r}, batch, sealID, g)
		rs.mu.Unlock()

		rs.qmu.Lock()
		for _, q := range batch {
			if pv != nil {
				q.pv = pv
			}
			q.done = true
		}
		rs.busy = false
		rs.qcond.Broadcast()
	}
	rs.qmu.Unlock()
	if req.pv != nil {
		panic(req.pv)
	}
	return req.err
}

// takeRingBatchLocked pops ring rs's next batch: FIFO, capped by
// GroupCommit.MaxBatch and so that the merged write set cannot exceed the
// ring's slot capacity (the sum of per-txn block counts is a conservative
// bound; every queued txn individually fits, so at least one is always
// taken). Caller holds rs.qmu.
func (c *Cache) takeRingBatchLocked(rs *ringState) []*commitReq {
	maxBatch := c.opts.groupBatch()
	blocks := 0
	n := 0
	for n < len(rs.queue) && n < maxBatch {
		blocks += len(rs.queue[n].t.order)
		if n > 0 && blocks > c.lay.RingSlots {
			break
		}
		n++
	}
	batch := rs.queue[:n:n]
	rs.queue = rs.queue[n:]
	return batch
}

// commitCrossRing seals t across its participating rings: a solo seal
// that locks the rings in index order. counts[r] > 0 marks participation.
func (c *Cache) commitCrossRing(t *Txn, counts []int) error {
	c.rec.Inc(metrics.TxnCrossShard)
	ringIDs := make([]int, 0, len(counts))
	for r, n := range counts {
		if n > 0 {
			ringIDs = append(ringIDs, r)
		}
	}
	// Index order makes the multi-lock acquisition deadlock-free against
	// every other seal; TryLock first only to count contention.
	for _, r := range ringIDs {
		rs := &c.rings[r]
		if !rs.mu.TryLock() {
			c.rec.Inc(metrics.TxnRingSealConflicts)
			rs.mu.Lock()
		}
	}
	req := &commitReq{t: t}
	var sealID uint64
	var g int64
	if c.obs != nil {
		sealID = c.obs.seals.Add(1)
		g = c.obs.gid()
	}
	pv := c.runRingSealLocked(ringIDs, []*commitReq{req}, sealID, g)
	for _, r := range ringIDs {
		c.rings[r].mu.Unlock()
	}
	if pv != nil {
		panic(pv)
	}
	return req.err
}

// runRingSealLocked seals one batch on the given rings (ascending; caller
// holds every ring's seal lock). It returns a recovered injected-crash
// panic value (nil normally); per-request errors are stored in the
// requests. When the merged batch cannot be allocated it degrades to one
// seal per transaction: small transactions still succeed where the
// merged batch could not fit.
func (c *Cache) runRingSealLocked(ringIDs []int, batch []*commitReq, sealID uint64, g int64) (pv any) {
	defer func() {
		if r := recover(); r != nil {
			// A simulated power failure fired mid-seal: poison the cache so
			// every subsequent operation observes the crash, and hand the
			// panic value to every transaction in the batch.
			c.poison(r)
			pv = r
		}
	}()
	if c.closed.Load() {
		for _, q := range batch {
			q.err = ErrClosed
		}
		return nil
	}
	c.checkPoison()
	if err := c.sealRings(ringIDs, batch, sealID, g); err != nil {
		// Phase-0 allocation failed with nothing persisted: retry each
		// transaction as its own seal, failing only those that cannot
		// allocate alone.
		for _, q := range batch {
			var soloID uint64
			if c.obs != nil {
				soloID = c.obs.seals.Add(1)
			}
			if q.err = c.sealRings(ringIDs, []*commitReq{q}, soloID, g); q.err != nil {
				c.rec.Inc(metrics.TxnAbort)
			}
		}
	}
	return nil
}

// sealRings runs the five seal phases for one batch over the given rings
// (ascending; caller holds every ring's seal lock). A non-nil error means
// phase-0 allocation failed and NOTHING was persisted — the volatile plan
// was unwound and the batch may be retried or failed by the caller.
// sealID and g identify the seal and leader goroutine for observability
// (both zero when Observe is off).
func (c *Cache) sealRings(ringIDs []int, batch []*commitReq, sealID uint64, g int64) error {
	// Phase stamps: ts advances phase by phase; tSeal spans the whole
	// batch. One nil check per phase when observability is off.
	var ts, tSeal int64
	if c.obs != nil {
		ts = c.obs.now()
		tSeal = ts
	}

	// Phase 0 — plan (volatile only). Merge the batch write set in
	// arrival order (last writer wins, a legal serial schedule because
	// the whole batch commits atomically), allocate every NVM block and
	// entry slot, and pin the hit targets against eviction (replacement
	// rule 2, Section 4.6). Nothing has been persisted yet, so an
	// allocation failure here unwinds in DRAM.
	plan := make([]*planBlock, 0, 16)
	byNo := make(map[uint64]*planBlock, 16)
	absorbed := 0
	for _, q := range batch {
		for _, no := range q.t.order {
			if pb, ok := byNo[no]; ok {
				pb.data = q.t.blocks[no]
				absorbed++
				continue
			}
			pb := &planBlock{no: no, data: q.t.blocks[no]}
			byNo[no] = pb
			plan = append(plan, pb)
		}
	}
	var planErr error
	for _, pb := range plan {
		sh := c.shardOf(pb.no)
		sh.mu.Lock()
		i, hit := sh.slot(pb.no)
		if hit {
			e := c.readEntry(i)
			if e.role == RoleLog {
				// Seal-vs-seal exclusion is the ring lock: a live log-role
				// entry here means a seal escaped it.
				sh.mu.Unlock()
				panic("core: live log-role entry outside a seal")
			}
			pb.hit, pb.slot, pb.prev = true, i, e.cur
			// Pin inside the same critical section as the lookup: the
			// background evictor only honours pins it can observe under
			// the shard lock.
			sh.pinned[i] = true
		} else {
			pb.prev = Fresh
		}
		sh.mu.Unlock()
		nb, err := c.allocBlock(shardIdx(pb.no))
		if err != nil {
			planErr = err
			break
		}
		pb.nb = nb
		if !hit {
			pb.slot = c.allocSlot(shardIdx(pb.no))
		}
		pb.allocated = true
	}
	if planErr != nil {
		c.unwindPlan(plan)
		return planErr
	}
	if c.obs != nil {
		ts = c.obs.phase(c.obs.absorb, sealID, spanAbsorb, ts, g)
	}

	// The commit-point generation is drawn while EVERY participating ring
	// lock is held, so each ring's record generations are strictly
	// increasing — the property recovery's generation merge rests on. It
	// is claimed before any persist so a harness can match the claimed
	// transactions against the largest sequence whose commit point was
	// reached (Options.SealHook).
	gen := c.gen.Add(1)
	for _, q := range batch {
		q.t.sealGen = gen
	}
	c.flEmit(flight.EvSealBegin, uint16(ringIDs[0]), gen, uint64(len(plan)), uint64(len(batch)))

	// Phase A — data. Every target block is freshly allocated, so no
	// reader can observe it yet; store + flush each, one fence for all.
	// (FaultSkipDataFlush, harness validation only, leaves the stores
	// volatile while the protocol proceeds.)
	for _, pb := range plan {
		off := c.lay.blockOff(pb.nb)
		c.mem.Store(off, pb.data)
		if c.opts.Fault != FaultSkipDataFlush {
			c.mem.CLFlush(off, BlockSize)
		}
	}
	c.mem.SFence()
	if c.obs != nil {
		ts = c.obs.phase(c.obs.data, sealID, spanData, ts, g)
	}

	// Phase B — entries, log role (16B atomic store + flush each, under
	// the block's shard lock so concurrent readers never tear), one fence
	// for all. Readers that catch a log-role entry serve the previous
	// sealed version (or read around for fresh blocks).
	for _, pb := range plan {
		func() {
			sh := c.shardOf(pb.no)
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if !pb.hit {
				if j, ok := sh.slot(pb.no); ok {
					// A concurrent read fill installed this block between
					// the plan phase (which decided "miss") and now. The
					// commit's version supersedes the clean filled copy.
					c.dropFilledLocked(sh, pb.no, j)
				}
				c.pushFrontLocked(sh, pb.slot)
				// Misses are pinned from insertion: after the phase-D role
				// switch the entry looks like an ordinary dirty buffer, but
				// it must not be evicted (with its disk write-back!) before
				// the Tail flip makes the whole batch durable.
				sh.pinned[pb.slot] = true
			}
			c.beginSlotMutate(pb.slot)
			c.storeEntry(pb.slot, entry{valid: true, role: RoleLog, modified: true, disk: pb.no, prev: pb.prev, cur: pb.nb})
			c.endSlotMutate(pb.slot)
			if !pb.hit {
				// Publish to the lock-free index only after the entry is in
				// place, so a fast reader can never look up a slot whose
				// entry is still the allocator's garbage.
				sh.mapStore(pb.no, pb.slot)
			}
			c.dirtied[pb.slot] = true
		}()
	}
	c.mem.SFence()
	if c.obs != nil {
		ts = c.obs.phase(c.obs.entries, sealID, spanEntries, ts, g)
	}

	// Phase C — ring records: each participating ring's blocks into its
	// own consecutive slots, ONE fence for all rings, then ONE Head
	// persist per ring. (The per-block Head persist of the serial path is
	// unnecessary: recovery sweeps *all* stray log entries, however many
	// a crash leaves.)
	var added [shardCount]uint64
	for _, r := range ringIDs {
		head := c.rings[r].head
		for _, pb := range plan {
			if c.ringOf(pb.no) == r {
				c.storeRingRecord(r, head+added[r], pb.no, gen)
				added[r]++
			}
		}
	}
	c.mem.SFence()
	for _, r := range ringIDs {
		c.advanceHead(r, added[r])
	}
	if c.obs != nil {
		ts = c.obs.phase(c.obs.ring, sealID, spanRing, ts, g)
	}

	// Phase D — role switches: flip every entry to buffer role, freeing
	// the previous versions; one fence for all.
	for _, pb := range plan {
		func() {
			sh := c.shardOf(pb.no)
			sh.mu.Lock()
			defer sh.mu.Unlock()
			e := c.readEntry(pb.slot)
			e.role = RoleBuffer
			e.prev = Fresh
			c.beginSlotMutate(pb.slot)
			c.storeEntry(pb.slot, e)
			c.endSlotMutate(pb.slot)
		}()
		if pb.prev != Fresh {
			c.freeDataBlock(pb.prev)
		}
	}
	c.mem.SFence()

	// Write-through without a destager propagates synchronously, before
	// the commit point, exactly as the serial path does.
	if c.opts.WriteThrough && c.destageCh == nil {
		buf := bufpool.Get()
		for _, pb := range plan {
			// writeBack performs the disk write outside the shard lock
			// under the slot's wb flag, so it coordinates with any
			// write-back the background evictor may have in flight.
			c.writeBack(c.shardOf(pb.no), pb.no, pb.slot, buf)
		}
		bufpool.Put(buf)
		c.mem.SFence()
	}
	if c.obs != nil {
		// The synchronous write-through propagation (when configured)
		// bills to the switch phase: it sits between the role switches
		// and the commit point.
		ts = c.obs.phase(c.obs.roleSw, sealID, spanSwitch, ts, g)
	}

	// Phase E — the commit point: one Tail persist per participating
	// ring, in index order. The commit event (flight record + SealHook)
	// fires only after the LAST flip: the flight record durable implies
	// every flip durable, which is the invariant the crash oracle checks
	// against the recovered Tails, and a crash between flips leaves the
	// seal unacknowledged for recovery to roll forward.
	last := ringIDs[len(ringIDs)-1]
	for _, r := range ringIDs {
		c.persistTail(r)
	}
	c.flEmit(flight.EvSealPersist, uint16(last), gen, c.rings[last].head, uint64(len(plan)))
	if c.opts.SealHook != nil {
		c.opts.SealHook(gen)
	}
	if c.obs != nil {
		c.obs.phase(c.obs.tail, sealID, spanTail, ts, g)
	}

	// Volatile epilogue: unpin, touch LRU (rule 2b: committed blocks are
	// most recently used), hand off to the destager, book the counters.
	for _, pb := range plan {
		sh := c.shardOf(pb.no)
		sh.mu.Lock()
		delete(sh.pinned, pb.slot)
		c.touchLocked(sh, pb.slot)
		sh.mu.Unlock()
	}
	if c.destageCh != nil {
		for _, pb := range plan {
			c.destageEnqueue(pb.no, pb.slot)
		}
	}
	for _, pb := range plan {
		if pb.hit {
			c.rec.Inc(metrics.CacheWriteHit)
			c.rec.Inc(metrics.TxnCOWBlocks)
		} else {
			c.rec.Inc(metrics.CacheWriteMiss)
		}
	}
	for _, q := range batch {
		q.err = nil
		c.rec.Inc(metrics.TxnCommit)
		c.rec.Add(metrics.TxnBlocks, int64(len(q.t.order)))
	}
	c.rec.Inc(metrics.TxnGroupSeals)
	c.rec.Add(metrics.TxnGroupSize, int64(len(batch)))
	c.rec.Add(metrics.TxnAbsorbed, int64(absorbed))
	for _, r := range ringIDs {
		c.rings[r].seals.Add(1)
	}
	c.flEmit(flight.EvSealComplete, uint16(last), gen, c.rings[last].head, uint64(len(batch)))
	if c.obs != nil {
		c.obs.phase(c.obs.seal, sealID, spanSeal, tSeal, g)
	}
	return nil
}

// storeRingRecord stores and flushes (no fence) ring r's record naming
// disk block no at monotonic ring position p. This and loadRingRecord are
// the only code that depends on the ring count: one ring keeps the
// paper's 8B block-number record, R > 1 rings a 16B {block, generation}
// record persisted atomically by one Store16.
func (c *Cache) storeRingRecord(r int, p, no, gen uint64) {
	if c.lay.Rings == 1 {
		off := c.lay.ringSlotOff(p)
		c.mem.Store8(off, no)
		c.mem.CLFlush(off, RingSlotSize)
		return
	}
	off := c.lay.mrSlotOff(r, p)
	var rec [mrSlotSize]byte
	binary.LittleEndian.PutUint64(rec[0:], no)
	binary.LittleEndian.PutUint64(rec[8:], gen)
	c.mem.Store16(off, rec)
	c.mem.CLFlush(off, mrSlotSize)
}

// loadRingRecord decodes ring r's record at monotonic position p. The
// single-ring record carries no generation (0 is returned): one ring's
// pending window holds at most one seal, so it needs none.
func (c *Cache) loadRingRecord(r int, p uint64) (no, gen uint64) {
	if c.lay.Rings == 1 {
		return c.mem.Load8(c.lay.ringSlotOff(p)), 0
	}
	v := c.mem.Load16(c.lay.mrSlotOff(r, p))
	return binary.LittleEndian.Uint64(v[0:8]), binary.LittleEndian.Uint64(v[8:16])
}

// advanceHead moves ring r's Head past n freshly recorded slots and
// persists it. Caller holds the ring's seal lock.
func (c *Cache) advanceHead(r int, n uint64) {
	rs := &c.rings[r]
	rs.head += n
	c.mem.Persist8(c.lay.ringHeadSlotOff(r, rs.head), rs.head)
}

// persistTail flips ring r's Tail up to its Head: the commit point of
// everything the ring's pending window names. Caller holds the ring's
// seal lock (or is the single-threaded recovery pass).
func (c *Cache) persistTail(r int) {
	rs := &c.rings[r]
	rs.tail = rs.head
	c.mem.Persist8(c.lay.ringTailSlotOff(r, rs.tail), rs.tail)
}

// unwindPlan releases everything phase 0 allocated or pinned. Nothing has
// been persisted, so this is pure DRAM bookkeeping. The caller holds the
// participating ring locks, the seal exclusion for every planned block;
// the body itself only takes shard locks and the (thread-safe) allocator.
func (c *Cache) unwindPlan(plan []*planBlock) {
	for _, pb := range plan {
		if pb.hit {
			sh := c.shardOf(pb.no)
			sh.mu.Lock()
			delete(sh.pinned, pb.slot)
			sh.mu.Unlock()
		}
		if pb.allocated {
			// Slot before block: once the block is poppable, a concurrent
			// allocPair may demand a slot on the spot (popSlot's invariant).
			if !pb.hit {
				c.alloc.pushSlot(pb.slot)
			}
			c.alloc.pushBlock(pb.nb)
		}
	}
}

// dropFilledLocked removes a clean read-fill entry that raced in between
// a commit's plan phase (which decided its block was a write miss) and
// the entry install. Only a concurrent fill can have installed it — every
// other writer of this block serializes on the seal exclusion the caller
// holds (the block's ring seal lock, or c.mu on the serial path) — so it
// is always a clean RoleBuffer entry whose loss loses nothing; dropping a
// committed version here would be a protocol break, hence the panic.
// Caller holds sh.mu.
func (c *Cache) dropFilledLocked(sh *shard, no uint64, i int32) {
	e := c.readEntry(i)
	if !e.valid || e.modified || e.role == RoleLog || e.prev != Fresh {
		panic("core: raced-in entry is not a clean read fill")
	}
	// Bump before the data block re-enters the free pool (same ordering
	// argument as eviction — see readfast.go).
	c.beginSlotMutate(i)
	c.clearEntry(i)
	sh.lru.remove(i)
	sh.mapDelete(no)
	c.dirtied[i] = false
	c.alloc.pushSlot(i)
	c.freeDataBlock(e.cur)
	c.endSlotMutate(i)
}
