package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tinca/internal/blockdev"
	"tinca/internal/core"
	"tinca/internal/fs"
	"tinca/internal/sim"
)

// layer is a tracing boundary, outermost first. Each layer's spans nest
// inside spans of the layer above on the same goroutine.
type layer uint8

const (
	layerOp   layer = iota // one workload operation (a TPC-C transaction on tpcc)
	layerFS                // workload or oltp → fs: a workload.FileAPI call
	layerCore              // fs → core: an fs.Backend or BackendTxn call
	layerDisk              // core → disk or tier: a blockdev.Store call
	numLayers
)

var layerNames = [numLayers]string{"op", "fs", "core", "blockdev"}

// Span names per layer. Op-layer names are the workload's op kinds.
const (
	fsCreate uint8 = iota
	fsMkdir
	fsRemove
	fsWrite // WriteAt and Append
	fsRead
	fsStat
	fsFsync
)

var fsNames = []string{"create", "mkdir", "remove", "write", "read", "stat", "fsync"}

const (
	coreRead uint8 = iota // ReadBlock and ReadBlockView
	coreCommit
)

var coreNames = []string{"read", "commit"}

const (
	diskRead uint8 = iota
	diskWrite
	diskAdmit
)

var diskNames = []string{"read", "write", "admit"}

// span is one call across a boundary. Times are nanoseconds: wall since
// the tracer started, sim on the stack's clock. [wall0, wall1] covers the
// wrapped call only; ovh is the wrapper's own bookkeeping around it, so a
// parent's self time can exclude its children's tracing cost.
type span struct {
	op     uint32 // op id, shared by every span of one operation (0 if unknown)
	parent int32  // index of the enclosing span; -1 at the op layer or when two are open
	layer  layer
	name   uint8
	wall0  int64
	wall1  int64
	ovh    int64
	sim0   int64
	sim1   int64
}

// maxSpans bounds the spans kept in memory (56 bytes each).
const maxSpans = 3 << 20

// tracer records spans in memory while on. With several client
// goroutines a span's parent is known only while a single span is open
// one layer up; layer self times are computed in aggregate and do not
// need parents.
type tracer struct {
	on    atomic.Bool
	clock *sim.Clock
	start time.Time

	mu        sync.Mutex
	spans     []span
	dropped   int64
	ambiguous int64
	open      [numLayers][]int32
	nextOp    uint32
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.start)) }

// begin opens a span and returns its index, or -1 when the tracer is off
// or full. parent is the enclosing span when the caller knows it, or -1
// to take the single open span of the nearest layer above.
func (t *tracer) begin(l layer, name uint8, parent int32) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	o0 := t.now()
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return -1
	}
	s := span{parent: parent, layer: l, name: name}
	switch {
	case l == layerOp:
		t.nextOp++
		s.op = t.nextOp
	case parent >= 0:
		s.op = t.spans[parent].op
	default:
		for up := int(l) - 1; up >= 0; up-- {
			open := t.open[up]
			if len(open) == 0 {
				continue
			}
			if len(open) == 1 {
				s.parent = open[0]
				s.op = t.spans[open[0]].op
			} else {
				t.ambiguous++
			}
			break
		}
	}
	idx := int32(len(t.spans))
	t.open[l] = append(t.open[l], idx)
	s.sim0 = int64(t.clock.Now())
	s.wall0 = t.now()
	s.ovh = s.wall0 - o0
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return idx
}

// end closes span idx (a no-op for -1).
func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	w1 := t.now()
	s1 := int64(t.clock.Now())
	t.mu.Lock()
	s := &t.spans[idx]
	s.wall1, s.sim1 = w1, s1
	open := t.open[s.layer]
	for i, j := range open {
		if j == idx {
			t.open[s.layer] = append(open[:i], open[i+1:]...)
			break
		}
	}
	s.ovh += t.now() - w1
	t.mu.Unlock()
}

func spanName(l layer, name uint8, opNames []string) string {
	names := [numLayers][]string{opNames, fsNames, coreNames, diskNames}[l]
	if int(name) < len(names) {
		return names[name]
	}
	return fmt.Sprint(name)
}

// writeSpans writes every span as gzipped CSV to path.
func (t *tracer) writeSpans(path string, opNames []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "index,op,parent,layer,name,wall_start_ns,wall_end_ns,sim_start_ns,sim_end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d,%d,%d\n", i, s.op, s.parent,
			layerNames[s.layer], spanName(s.layer, s.name, opNames), s.wall0, s.wall1, s.sim0, s.sim1)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- boundary wrappers ----------------------------------------------------

// fileAPI is the workload.FileAPI every client drives. It counts FS calls
// and the user bytes handed to writes, and with a tracer it records an
// fs-layer span per call. Each client owns one, so the counters need no
// synchronization.
type fileAPI struct {
	fs     *fs.FS
	tr     *tracer
	op     int32 // the client's open op-layer span, the parent of its fs spans
	calls  int64
	wbytes int64
}

func (a *fileAPI) Create(path string) error {
	a.calls++
	i := a.tr.begin(layerFS, fsCreate, a.op)
	err := a.fs.Create(path)
	a.tr.end(i)
	return err
}

func (a *fileAPI) Mkdir(path string) error {
	a.calls++
	i := a.tr.begin(layerFS, fsMkdir, a.op)
	err := a.fs.Mkdir(path)
	a.tr.end(i)
	return err
}

func (a *fileAPI) Remove(path string) error {
	a.calls++
	i := a.tr.begin(layerFS, fsRemove, a.op)
	err := a.fs.Remove(path)
	a.tr.end(i)
	return err
}

func (a *fileAPI) WriteAt(path string, off uint64, data []byte) error {
	a.calls++
	a.wbytes += int64(len(data))
	i := a.tr.begin(layerFS, fsWrite, a.op)
	err := a.fs.WriteAt(path, off, data)
	a.tr.end(i)
	return err
}

func (a *fileAPI) Append(path string, data []byte) error {
	a.calls++
	a.wbytes += int64(len(data))
	i := a.tr.begin(layerFS, fsWrite, a.op)
	err := a.fs.Append(path, data)
	a.tr.end(i)
	return err
}

func (a *fileAPI) ReadAt(path string, off uint64, p []byte) (int, error) {
	a.calls++
	i := a.tr.begin(layerFS, fsRead, a.op)
	n, err := a.fs.ReadAt(path, off, p)
	a.tr.end(i)
	return n, err
}

func (a *fileAPI) Stat(path string) (fs.FileInfo, error) {
	a.calls++
	i := a.tr.begin(layerFS, fsStat, a.op)
	fi, err := a.fs.Stat(path)
	a.tr.end(i)
	return fi, err
}

func (a *fileAPI) Fsync(path string) error {
	a.calls++
	i := a.tr.begin(layerFS, fsFsync, a.op)
	err := a.fs.Fsync(path)
	a.tr.end(i)
	return err
}

// tracedBackend maps file-system transactions 1:1 onto Tinca commits, as
// the stack package's own Tinca backend does, recording core-layer spans.
// It forwards both optional capabilities the file system probes for.
type tracedBackend struct {
	c  *core.Cache
	tr *tracer
}

var (
	_ fs.ConcurrentReader = (*tracedBackend)(nil)
	_ fs.ViewReader       = (*tracedBackend)(nil)
)

func (b *tracedBackend) ReadBlock(no uint64, p []byte) error {
	i := b.tr.begin(layerCore, coreRead, -1)
	err := b.c.Read(no, p)
	b.tr.end(i)
	return err
}

func (b *tracedBackend) Begin() fs.BackendTxn  { return &tracedTxn{t: b.c.Begin(), tr: b.tr} }
func (b *tracedBackend) Sync() error           { return nil }
func (b *tracedBackend) Close() error          { return b.c.Close() }
func (b *tracedBackend) ConcurrentReads() bool { return true }

func (b *tracedBackend) ReadBlockView(no uint64) (fs.BlockView, error) {
	i := b.tr.begin(layerCore, coreRead, -1)
	v, err := b.c.ReadView(no)
	b.tr.end(i)
	if err != nil {
		return nil, err
	}
	return &v, nil
}

type tracedTxn struct {
	t  *core.Txn
	tr *tracer
}

func (t *tracedTxn) Write(no uint64, data []byte) { t.t.Write(no, data) }
func (t *tracedTxn) Revoke(uint64)                {}
func (t *tracedTxn) Abort()                       { t.t.Abort() }
func (t *tracedTxn) Commit() error {
	i := t.tr.begin(layerCore, coreCommit, -1)
	err := t.t.Commit()
	t.tr.end(i)
	return err
}

// tracedStore records disk-layer spans around a blockdev.Store.
type tracedStore struct {
	s  blockdev.Store
	tr *tracer
}

func (d *tracedStore) Blocks() uint64 { return d.s.Blocks() }

func (d *tracedStore) ReadBlock(no uint64, p []byte) {
	i := d.tr.begin(layerDisk, diskRead, -1)
	d.s.ReadBlock(no, p)
	d.tr.end(i)
}

func (d *tracedStore) WriteBlock(no uint64, p []byte) {
	i := d.tr.begin(layerDisk, diskWrite, -1)
	d.s.WriteBlock(no, p)
	d.tr.end(i)
}

// tracedVictimStore also forwards core.CleanVictimCache, which core.Open
// detects on the disk it is given: without it a tiered stack would lose
// its clean-victim admissions.
type tracedVictimStore struct {
	tracedStore
	vc core.CleanVictimCache
}

func (d *tracedVictimStore) AdmitClean(no uint64, data []byte) bool {
	i := d.tr.begin(layerDisk, diskAdmit, -1)
	ok := d.vc.AdmitClean(no, data)
	d.tr.end(i)
	return ok
}

// wrapStore returns s wrapped for tracing, keeping its optional
// clean-victim capability.
func wrapStore(s blockdev.Store, tr *tracer) blockdev.Store {
	ts := tracedStore{s: s, tr: tr}
	if vc, ok := s.(core.CleanVictimCache); ok {
		return &tracedVictimStore{tracedStore: ts, vc: vc}
	}
	return &ts
}
