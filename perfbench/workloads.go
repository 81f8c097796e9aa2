package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"tinca/internal/blockdev"
	"tinca/internal/fs"
	"tinca/internal/objstore"
	"tinca/internal/oltp"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

const blockSize = fs.BlockSize

// spec describes one workload: the stack it runs on, its closed-loop
// clients, and how to build its driver for a seed.
type spec struct {
	name    string
	clients int
	opNames []string
	// warmOps is the op count per client run after the dataset is laid
	// out and before timing starts.
	warmOps int
	cfg     stack.Config
	driver  func(seed int64) driver
}

// driver generates and checks one workload's operations. Each client
// repeats next (untimed), call (timed: exactly one call into the stack)
// and check (untimed).
type driver interface {
	// setupClient gives a client its buffers and generators.
	setupClient(c *client)
	// load lays out the dataset through api.
	load(api *fileAPI) error
	next(c *client)
	call(c *client) error
	check(c *client) error
	// precheck verifies the stack before a crash; crashOp runs the
	// operation the crash interrupts.
	precheck() error
	crashOp(c *client) error
	// verify checks the remounted stack against everything acknowledged;
	// crashed reports whether the crash cut crashOp short.
	verify(api *fileAPI, crashed bool) error
}

// client is one closed-loop caller and its scratch state.
type client struct {
	id   int
	rng  *rand.Rand
	api  *fileAPI
	buf  []byte
	want []byte
	zipf *rand.Zipf

	// The prepared operation.
	kind  uint8
	block int
	n     int // blocks
	ver   uint32
}

// stackConfig spells out every field stack.New would otherwise default,
// so the traced rig's own assembly builds the identical stack.
func stackConfig(nvmBytes int, fsBlocks uint64) stack.Config {
	return stack.Config{
		Kind:          stack.Tinca,
		NVMBytes:      nvmBytes,
		NVMProfile:    pmem.PCM,
		DiskProfile:   blockdev.SSD,
		FSBlocks:      fsBlocks,
		JournalBlocks: 4096,
		FSOpCostNS:    2000,
	}
}

// Block-workload op kinds.
const (
	opRead uint8 = iota
	opWrite
	opScan
)

var blockOpNames = []string{"read", "write", "scan"}

var specs = []spec{
	{
		// The working set fits: the commit path, the read-hit path and
		// pmem do nearly all the work; blockdev and objstore none.
		name:    "fio_hot",
		clients: 2,
		opNames: blockOpNames,
		warmOps: 10000,
		cfg:     stackConfig(32<<20, 16384),
		driver: func(seed int64) driver {
			return newBlockDriver(seed, 4096, 2, 70, 0, 0)
		},
	},
	{
		// TPC-C at the Figure 8 sizing: oltp, fs metadata and path work,
		// multi-block commits, eviction and SSD misses dominate.
		name:    "tpcc",
		clients: 1,
		opNames: tpccOpNames,
		warmOps: 600,
		cfg: func() stack.Config {
			cfg := stackConfig(5<<20, 24576)
			cfg.RingBytes = 256 << 10
			cfg.GroupCommitBlocks = 1 << 20 // one commit per fsync, i.e. per transaction
			return cfg
		}(),
		driver: func(seed int64) driver { return newTPCCDriver(seed) },
	},
	{
		// L3 on: the miss path, eviction, L2, object GETs and PUTs, the
		// prefetcher and the uploader do most of the work.
		name:    "tiered_mix",
		clients: 1,
		opNames: blockOpNames,
		warmOps: 5000,
		cfg: func() stack.Config {
			cfg := stackConfig(8<<20, 49152)
			cfg.L3 = true
			cfg.L3Profile = objstore.S3
			cfg.L3L2Blocks = 4096
			cfg.L3ObjectBlocks = 16
			cfg.L3Prefetch = 4
			return cfg
		}(),
		driver: func(seed int64) driver {
			return newBlockDriver(seed, 40960, 1, 70, 10, 1.1)
		},
	},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// ---- block workloads (fio_hot, tiered_mix) --------------------------------

// blockDriver issues 4KB point reads and writes, and optionally 64KB
// sequential scan reads, against one file. Every block carries a
// (block, version) stamp and every read is checked against the last
// acknowledged write of each block it covers.
type blockDriver struct {
	path    string
	blocks  int
	clients int
	readPct int
	scanPct int
	zipfS   float64 // > 1: Zipf-skewed point ops over a shuffled block order
	perm    []int32 // Zipf rank → block

	tag    uint64   // per-seed content tag
	base   []byte   // seeded background page
	ver    []uint32 // last acknowledged version per block
	cursor int      // next scan position

	crashBlock int
}

const scanBlocks = 16 // 64KB

func newBlockDriver(seed int64, blocks, clients, readPct, scanPct int, zipfS float64) *blockDriver {
	r := sim.NewRand(seed)
	d := &blockDriver{
		path: "/data.bin", blocks: blocks, clients: clients,
		readPct: readPct, scanPct: scanPct, zipfS: zipfS,
		tag:  r.Uint64(),
		base: make([]byte, blockSize),
		ver:  make([]uint32, blocks),
	}
	r.Read(d.base)
	if zipfS > 1 {
		d.perm = make([]int32, blocks)
		for i, p := range r.Perm(blocks) {
			d.perm[i] = int32(p)
		}
	}
	if scanPct > 0 {
		d.cursor = r.Intn(blocks/scanBlocks) * scanBlocks
	}
	return d
}

// fill writes block b's content at version v into p.
func (d *blockDriver) fill(p []byte, b int, v uint32) {
	copy(p, d.base)
	for i := 0; i < blockSize; i += 64 {
		binary.LittleEndian.PutUint64(p[i:], d.tag^uint64(b)<<32^uint64(v)<<12^uint64(i))
	}
}

func (d *blockDriver) load(api *fileAPI) error {
	if err := api.Create(d.path); err != nil {
		return err
	}
	const chunk = 16
	buf := make([]byte, chunk*blockSize)
	for b := 0; b < d.blocks; b += chunk {
		for i := 0; i < chunk; i++ {
			d.fill(buf[i*blockSize:(i+1)*blockSize], b+i, 0)
		}
		if err := api.WriteAt(d.path, uint64(b)*blockSize, buf); err != nil {
			return err
		}
	}
	return nil
}

func (d *blockDriver) setupClient(c *client) {
	c.buf = make([]byte, scanBlocks*blockSize)
	c.want = make([]byte, blockSize)
	if d.zipfS > 1 {
		c.zipf = rand.NewZipf(c.rng, d.zipfS, 1, uint64(d.blocks-1))
	}
}

func (d *blockDriver) next(c *client) {
	if d.scanPct > 0 && c.rng.Intn(100) < d.scanPct {
		c.kind, c.block, c.n = opScan, d.cursor, scanBlocks
		d.cursor = (d.cursor + scanBlocks) % d.blocks
		return
	}
	if c.zipf != nil {
		c.block = int(d.perm[c.zipf.Uint64()])
	} else {
		// Clients own interleaved halves, so each knows its blocks'
		// acknowledged versions exactly.
		c.block = c.rng.Intn(d.blocks/d.clients)*d.clients + c.id
	}
	c.n = 1
	if c.rng.Intn(100) < d.readPct {
		c.kind = opRead
		return
	}
	c.kind = opWrite
	c.ver = d.ver[c.block] + 1
	d.fill(c.buf[:blockSize], c.block, c.ver)
}

func (d *blockDriver) call(c *client) error {
	off := uint64(c.block) * blockSize
	if c.kind == opWrite {
		return c.api.WriteAt(d.path, off, c.buf[:blockSize])
	}
	n, err := c.api.ReadAt(d.path, off, c.buf[:c.n*blockSize])
	if err == nil && n != c.n*blockSize {
		err = fmt.Errorf("short read of %d bytes at block %d", n, c.block)
	}
	return err
}

func (d *blockDriver) check(c *client) error {
	if c.kind == opWrite {
		d.ver[c.block] = c.ver
		return nil
	}
	for i := 0; i < c.n; i++ {
		if err := d.checkBlock(c, c.buf[i*blockSize:(i+1)*blockSize], c.block+i, d.ver[c.block+i]); err != nil {
			return err
		}
	}
	return nil
}

func (d *blockDriver) checkBlock(c *client, got []byte, b int, v uint32) error {
	d.fill(c.want, b, v)
	if !bytes.Equal(got, c.want) {
		return fmt.Errorf("block %d: content differs from acknowledged version %d", b, v)
	}
	return nil
}

// precheck has nothing to add: every read is already checked.
func (d *blockDriver) precheck() error { return nil }

func (d *blockDriver) crashOp(c *client) error {
	c.block = c.rng.Intn(d.blocks)
	d.crashBlock = c.block
	c.kind, c.n, c.ver = opWrite, 1, d.ver[c.block]+1
	d.fill(c.buf[:blockSize], c.block, c.ver)
	if err := d.call(c); err != nil {
		return err
	}
	return d.check(c)
}

// verify reads back every block. The block crashOp was writing may hold
// either its old or its new version, never anything else.
func (d *blockDriver) verify(api *fileAPI, crashed bool) error {
	c := &client{api: api}
	d.setupClient(c)
	for b := 0; b < d.blocks; b += scanBlocks {
		n, err := api.ReadAt(d.path, uint64(b)*blockSize, c.buf)
		if err != nil {
			return err
		}
		if n != len(c.buf) {
			return fmt.Errorf("short read of %d bytes at block %d", n, b)
		}
		for i := 0; i < scanBlocks; i++ {
			blk, got := b+i, c.buf[i*blockSize:(i+1)*blockSize]
			err := d.checkBlock(c, got, blk, d.ver[blk])
			if err != nil && crashed && blk == d.crashBlock {
				if d.checkBlock(c, got, blk, d.ver[blk]+1) == nil {
					d.ver[blk]++ // committed but never acknowledged
					err = nil
				}
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- tpcc ------------------------------------------------------------------

var tpccOpNames = []string{"neworder", "payment", "orderstatus", "delivery", "stocklevel"}

var tpccMix = []int{oltp.Mix.NewOrder, oltp.Mix.Payment, oltp.Mix.OrderStatus, oltp.Mix.Delivery, oltp.Mix.StockLevel}

// tpccDriver runs the TPC-C mix with one client calling the engine's
// transaction functions directly; every transaction ends in one fsync.
type tpccDriver struct {
	cfg oltp.Config
	e   *oltp.Engine
}

func newTPCCDriver(seed int64) *tpccDriver {
	return &tpccDriver{cfg: oltp.Config{
		Warehouses: 4, CustomersPerDistrict: 300, Items: 1500, MaxOrders: 128, Seed: seed,
	}}
}

func (d *tpccDriver) load(api *fileAPI) error {
	e, err := oltp.Load(api, d.cfg)
	d.e = e
	return err
}

func (d *tpccDriver) setupClient(*client) {}

func (d *tpccDriver) next(c *client) { c.kind = uint8(sim.Pick(c.rng, tpccMix)) }

func (d *tpccDriver) call(c *client) error {
	switch c.kind {
	case 0:
		return d.e.NewOrder(c.rng)
	case 1:
		return d.e.Payment(c.rng)
	case 2:
		return d.e.OrderStatus(c.rng)
	case 3:
		return d.e.Delivery(c.rng)
	default:
		return d.e.StockLevel(c.rng)
	}
}

func (d *tpccDriver) check(*client) error { return nil }

// crashOp runs one NewOrder, the most frequent transaction that writes.
func (d *tpccDriver) crashOp(c *client) error {
	c.kind = 0
	return d.call(c)
}

func (d *tpccDriver) precheck() error { return d.e.CheckConsistency() }

func (d *tpccDriver) verify(api *fileAPI, _ bool) error {
	e, err := oltp.Attach(api, d.cfg)
	if err != nil {
		return err
	}
	d.e = e
	return e.CheckConsistency()
}
