package main

import (
	"fmt"
	"math/rand"

	"tinca/internal/blockdev"
	"tinca/internal/core"
	"tinca/internal/fs"
	"tinca/internal/metrics"
	"tinca/internal/objstore"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

// rig is one Tinca stack under test. An untraced rig is the product's own
// assembly (stack.New, Stack.Crash, Stack.Remount). A traced rig is the
// same stack built from the public layer constructors with the tracing
// wrappers at the fs→core and core→disk boundaries; its configuration
// must spell out every field stack.New would otherwise default, so both
// assemblies build identical devices.
type rig struct {
	cfg stack.Config
	st  *stack.Stack // untraced only
	tr  *tracer      // traced only

	clock *sim.Clock
	rec   *metrics.Recorder
	mem   *pmem.Device
	disk  *blockdev.Device
	store *objstore.Store

	// Rebuilt by every mount.
	tier  *objstore.Tier
	cache *core.Cache
	fs    *fs.FS
}

func newRig(cfg stack.Config, tr *tracer) (*rig, error) {
	if tr == nil {
		s, err := stack.New(cfg)
		if err != nil {
			return nil, err
		}
		r := &rig{cfg: s.Cfg, st: s, clock: s.Clock, rec: s.Rec, mem: s.Mem, disk: s.Disk, store: s.Store}
		r.adopt()
		return r, nil
	}
	r := &rig{cfg: cfg, tr: tr, clock: sim.NewClock(), rec: metrics.NewRecorder()}
	tr.clock = r.clock
	r.mem = pmem.New(cfg.NVMBytes, cfg.NVMProfile, r.clock, r.rec)
	if cfg.L3 {
		r.disk = blockdev.New(objstore.DevBlocksFor(cfg.L3L2Blocks), cfg.DiskProfile, r.clock, r.rec)
		r.store = objstore.NewStore(cfg.L3Profile, r.clock, r.rec)
	} else {
		r.disk = blockdev.New(cfg.FSBlocks+cfg.JournalBlocks, cfg.DiskProfile, r.clock, r.rec)
	}
	return r, r.mount(true)
}

// adopt copies the per-mount layer handles out of the untraced stack.
func (r *rig) adopt() { r.tier, r.cache, r.fs = r.st.Tier, r.st.TCache, r.st.FS }

// mount opens every layer of a traced rig (format or recover), mirroring
// stack.New and Stack.Remount for the Tinca kind.
func (r *rig) mount(format bool) error {
	cfg := r.cfg
	r.mem.Observe(cfg.Observe)
	var down blockdev.Store = r.disk
	if cfg.L3 {
		tier, err := objstore.NewTier(cfg.FSBlocks+cfg.JournalBlocks, r.disk, r.store, r.rec,
			objstore.TierOptions{
				ObjectBlocks:    cfg.L3ObjectBlocks,
				UploadWorkers:   cfg.L3UploadWorkers,
				MaxDirty:        cfg.L3MaxDirty,
				PrefetchWorkers: cfg.L3Prefetch,
			})
		if err != nil {
			return err
		}
		r.tier = tier
		down = tier
	}
	c, err := core.Open(r.mem, wrapStore(down, r.tr), cfg.Options)
	if err != nil {
		return err
	}
	r.cache = c
	opts := fs.Options{
		GroupCommitBlocks:     cfg.GroupCommitBlocks,
		GroupCommitIntervalNS: cfg.GroupCommitIntervalNS,
		PageCacheBlocks:       cfg.PageCacheBlocks,
		Clock:                 r.clock,
		OpCostNS:              cfg.FSOpCostNS,
		Rec:                   r.rec,
		Observe:               cfg.Observe,
	}
	b := &tracedBackend{c: c, tr: r.tr}
	if format {
		r.fs, err = fs.Format(b, cfg.FSBlocks, cfg.InodeCount, opts)
	} else {
		r.fs, err = fs.Mount(b, opts)
	}
	return err
}

// crash cuts power: the tier's pipelines stop undrained and NVM keeps only
// what was flushed, plus the lines rng lets survive with probability evictP.
func (r *rig) crash(rng *rand.Rand, evictP float64) {
	if r.st != nil {
		r.st.Crash(rng, evictP)
		r.adopt()
		return
	}
	if r.tier != nil {
		r.tier.Crash()
		r.tier = nil
	}
	r.mem.Crash(rng, evictP)
	r.cache, r.fs = nil, nil
}

// remount runs every layer's recovery after crash.
func (r *rig) remount() error {
	if r.st != nil {
		err := r.st.Remount()
		r.adopt()
		return err
	}
	return r.mount(false)
}

// discard stops the rig's background goroutines without flushing.
func (r *rig) discard() {
	if r.tier != nil {
		r.tier.Close()
	}
}

// stats snapshots every layer's counters, the same typed view
// Stack.Stats gives for the untraced assembly.
func (r *rig) stats() stack.Stats {
	if r.st != nil {
		return r.st.Stats()
	}
	st := stack.Stats{Kind: stack.Tinca, SimulatedNS: int64(r.clock.Now())}
	st.Cache = r.cache.Stats()
	st.FS = r.fs.Stats()
	st.Device = stack.DeviceStats{
		CLFlushes:       r.rec.Get(metrics.NVMCLFlush),
		SFences:         r.rec.Get(metrics.NVMSFence),
		NVMBytesWritten: r.rec.Get(metrics.NVMBytesWrite),
		NVMBytesRead:    r.rec.Get(metrics.NVMBytesRead),
		DiskBlocksWrite: r.rec.Get(metrics.DiskBlocksWrite),
		DiskBlocksRead:  r.rec.Get(metrics.DiskBlocksRead),
		DiskBytesWrite:  r.rec.Get(metrics.DiskBytesWrite),
		DiskBytesRead:   r.rec.Get(metrics.DiskBytesRead),
	}
	if r.tier != nil {
		st.Tier = r.tier.Stats()
	}
	if r.store != nil {
		st.Obj = r.store.Stats()
	}
	return st
}

// checkMounted runs the structural checks that must hold after recovery.
func (r *rig) checkMounted() error {
	if err := r.fs.Check(); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if err := r.cache.CheckInvariants(); err != nil {
		return fmt.Errorf("cache invariants: %w", err)
	}
	return nil
}
