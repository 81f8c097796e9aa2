package fs_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/pmem"
	"tinca/internal/raceflag"
	"tinca/internal/stack"
)

// These tests run the file system on the Tinca stack it is measured on,
// so they live in the external test package (stack imports fs).

func newTincaStack(t *testing.T) *stack.Stack {
	t.Helper()
	s, err := stack.New(stack.Config{
		Kind:        stack.Tinca,
		NVMBytes:    8 << 20,
		NVMProfile:  pmem.NVDIMM,
		DiskProfile: blockdev.Null,
		FSBlocks:    8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// Allocation bounds of the FS operation path, each at most 1.5x the value
// measured when it was set (warm read 0, overwrite+Fsync 1 on go1.24).
// The write bound covers the commit's caller-owned core *Txn, which the
// FS cannot avoid.
const (
	maxWarmReadAllocs      = 0
	maxOverwriteSyncAllocs = 1.5
)

func TestWarmReadAtAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	s := newTincaStack(t)
	const blocks = 16
	if err := s.FS.MkdirAll("/data/dir"); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.WriteFile("/data/dir/f", bytes.Repeat([]byte{7}, blocks*4096)); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.Fsync("/data/dir/f"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	k := 0
	read := func() {
		if _, err := s.FS.ReadAt("/data/dir/f", uint64(k%blocks)*4096, buf); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for i := 0; i < blocks; i++ {
		read() // warm
	}
	if allocs := testing.AllocsPerRun(200, read); allocs > maxWarmReadAllocs {
		t.Fatalf("warm 4KB ReadAt allocates %v times, bound %d", allocs, maxWarmReadAllocs)
	}
}

func TestOverwriteFsyncAllocationBound(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	s := newTincaStack(t)
	const blocks = 16
	if err := s.FS.WriteFile("/f", make([]byte, blocks*4096)); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{9}, 4096)
	k := 0
	write := func() {
		if err := s.FS.WriteAt("/f", uint64(k%blocks)*4096, buf); err != nil {
			t.Fatal(err)
		}
		if err := s.FS.Fsync("/f"); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for i := 0; i < 2*blocks; i++ {
		write() // warm
	}
	allocs := testing.AllocsPerRun(200, write)
	t.Logf("4KB overwrite WriteAt+Fsync: %v allocs", allocs)
	if allocs > maxOverwriteSyncAllocs {
		t.Fatalf("4KB overwrite WriteAt+Fsync allocates %v times, bound %v", allocs, maxOverwriteSyncAllocs)
	}
}

// TestConcurrentReadersAndWriters runs ReadAt/Stat readers, which share
// the FS read lock and the context pool, against WriteAt/Create writers on
// a Tinca stack. Every block of a reader's file carries one repeated byte,
// rewritten whole, so a torn or foreign-context read shows as mixed bytes.
// Run it under -race.
func TestConcurrentReadersAndWriters(t *testing.T) {
	s := newTincaStack(t)
	const files, blocks = 4, 8
	for i := 0; i < files; i++ {
		if err := s.FS.WriteFile(fmt.Sprintf("/f%d", i), make([]byte, blocks*4096)); err != nil {
			t.Fatal(err)
		}
	}
	iters := 300
	if testing.Short() {
		iters = 100
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			blk := make([]byte, 4096)
			for i := 0; i < iters; i++ {
				path := fmt.Sprintf("/f%d", (w+i)%files)
				for j := range blk {
					blk[j] = byte(i)
				}
				if err := s.FS.WriteAt(path, uint64(i%blocks)*4096, blk); err != nil {
					errc <- err
					return
				}
				if i%10 == 0 {
					if err := s.FS.Create(fmt.Sprintf("/new-%d-%d", w, i)); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := 0; i < iters; i++ {
				path := fmt.Sprintf("/f%d", (r+i)%files)
				if _, err := s.FS.ReadAt(path, uint64(i%blocks)*4096, buf); err != nil {
					errc <- err
					return
				}
				for _, b := range buf {
					if b != buf[0] {
						errc <- fmt.Errorf("%s block %d: torn read", path, i%blocks)
						return
					}
				}
				if info, err := s.FS.Stat(path); err != nil || info.Size != blocks*4096 {
					errc <- fmt.Errorf("Stat(%s) = %+v, %v", path, info, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := s.FS.Check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSmallWriteAfterBulkWrite measures a 4KB overwrite+Fsync on a
// Tinca stack after the file was laid out by one WriteFile of the given
// size. A small overwrite should not cost more because an earlier
// operation was large.
func BenchmarkSmallWriteAfterBulkWrite(b *testing.B) {
	for _, mb := range []int{1, 16} {
		b.Run(fmt.Sprintf("bulk=%dMB", mb), func(b *testing.B) {
			s, err := stack.New(stack.Config{
				Kind:        stack.Tinca,
				NVMBytes:    32 << 20,
				NVMProfile:  pmem.NVDIMM,
				DiskProfile: blockdev.Null,
				FSBlocks:    16384,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			blocks := mb << 20 / 4096
			if err := s.FS.WriteFile("/f", make([]byte, blocks*4096)); err != nil {
				b.Fatal(err)
			}
			buf := bytes.Repeat([]byte{9}, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.FS.WriteAt("/f", uint64(i%blocks)*4096, buf); err != nil {
					b.Fatal(err)
				}
				if err := s.FS.Fsync("/f"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
