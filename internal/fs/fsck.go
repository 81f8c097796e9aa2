package fs

import (
	"encoding/binary"
	"fmt"
)

// Check is an fsck-style structural consistency verifier, used by the
// crash-consistency harness after every recovery. It walks the inode
// table, directory tree and allocation bitmaps from their persistent state
// and reports the first violation found:
//
//   - every block referenced by an inode (data or indirect) is marked
//     allocated and referenced exactly once;
//   - every allocated inode is reachable from the root directory exactly
//     once, and every dirent points to an allocated inode;
//   - bitmap mirrors agree with the persistent bitmaps;
//   - file sizes are consistent with the mapped block range.
func (f *FS) Check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ctx := f.beginOp()
	defer f.endOp(ctx)

	// 1. Bitmap mirrors match persistent bitmaps.
	if err := f.checkBitmap(ctx, f.g.blockBitmapStart, f.blockBitmap, f.g.totalBlocks, "block"); err != nil {
		return err
	}
	if err := f.checkBitmap(ctx, f.g.inodeBitmapStart, f.inodeBitmap, f.g.inodeCount, "inode"); err != nil {
		return err
	}

	// 2. Walk every allocated inode; collect block references.
	refs := make(map[uint64]uint64) // block -> referencing inode
	addRef := func(blk, ino uint64) error {
		if blk < f.g.dataStart || blk >= f.g.totalBlocks {
			return fmt.Errorf("fsck: inode %d references out-of-range block %d", ino, blk)
		}
		if !bitmapGet(f.blockBitmap, blk) {
			return fmt.Errorf("fsck: inode %d references unallocated block %d", ino, blk)
		}
		if prev, dup := refs[blk]; dup {
			return fmt.Errorf("fsck: block %d referenced by inodes %d and %d", blk, prev, ino)
		}
		refs[blk] = ino
		return nil
	}

	allocatedInodes := make(map[uint64]inode)
	for ino := uint64(1); ino < f.g.inodeCount; ino++ {
		if !bitmapGet(f.inodeBitmap, ino) {
			continue
		}
		in, err := ctx.readInode(ino)
		if err != nil {
			return err
		}
		if in.mode != ModeFile && in.mode != ModeDir && in.mode != ModeSymlink {
			return fmt.Errorf("fsck: allocated inode %d has invalid mode %d", ino, in.mode)
		}
		if in.mode == ModeSymlink && (in.size == 0 || in.size >= BlockSize || in.direct[0] == 0) {
			return fmt.Errorf("fsck: symlink inode %d malformed (size %d)", ino, in.size)
		}
		allocatedInodes[ino] = in
		if err := f.walkInodeBlocks(ctx, in, ino, addRef); err != nil {
			return err
		}
		maxBlocks := (in.size + BlockSize - 1) / BlockSize
		if maxBlocks > MaxFileBlocks {
			return fmt.Errorf("fsck: inode %d size %d exceeds maximum", ino, in.size)
		}
	}

	// 3. Directory tree: every allocated inode reachable; files exactly
	// nlink times (hard links), directories exactly once.
	seen := map[uint64]int{rootIno: 1}
	var walk func(dir uint64) error
	walk = func(dir uint64) error {
		din := allocatedInodes[dir]
		nblocks := (din.size + BlockSize - 1) / BlockSize
		buf := make([]byte, BlockSize)
		for l := uint64(0); l < nblocks; l++ {
			_, phys, err := ctx.bmap(din, l, false)
			if err != nil {
				return err
			}
			if phys == 0 {
				continue
			}
			if err := ctx.readBlock(phys, buf); err != nil {
				return err
			}
			for i := 0; i < direntsPerBlk; i++ {
				rec := buf[i*direntSize : (i+1)*direntSize]
				child := binary.LittleEndian.Uint64(rec[direntInoOff:])
				if child == 0 {
					continue
				}
				cin, ok := allocatedInodes[child]
				if !ok {
					return fmt.Errorf("fsck: dirent %q in dir inode %d points to unallocated inode %d",
						direntName(rec), dir, child)
				}
				seen[child]++
				if cin.mode == ModeDir {
					if seen[child] > 1 {
						return fmt.Errorf("fsck: directory inode %d linked more than once", child)
					}
					if err := walk(child); err != nil {
						return err
					}
				} else if seen[child] > int(cin.nlink) {
					return fmt.Errorf("fsck: inode %d linked %d times, nlink is %d",
						child, seen[child], cin.nlink)
				}
			}
		}
		return nil
	}
	if _, ok := allocatedInodes[rootIno]; !ok {
		return fmt.Errorf("fsck: root inode not allocated")
	}
	if err := walk(rootIno); err != nil {
		return err
	}
	for ino, in := range allocatedInodes {
		if seen[ino] == 0 {
			return fmt.Errorf("fsck: allocated inode %d unreachable from root", ino)
		}
		if in.mode == ModeFile && seen[ino] != int(in.nlink) {
			return fmt.Errorf("fsck: inode %d has nlink %d but %d links found", ino, in.nlink, seen[ino])
		}
	}
	return nil
}

// walkInodeBlocks visits every block (data and indirect) an inode maps.
func (f *FS) walkInodeBlocks(ctx *opCtx, in inode, ino uint64, visit func(blk, ino uint64) error) error {
	for i := 0; i < numDirect; i++ {
		if in.direct[i] != 0 {
			if err := visit(in.direct[i], ino); err != nil {
				return err
			}
		}
	}
	var walkInd func(blk uint64, depth int) error
	walkInd = func(blk uint64, depth int) error {
		if err := visit(blk, ino); err != nil {
			return err
		}
		buf := make([]byte, BlockSize)
		if err := ctx.readBlock(blk, buf); err != nil {
			return err
		}
		for i := 0; i < ptrsPerBlock; i++ {
			p := binary.LittleEndian.Uint64(buf[i*8:])
			if p == 0 {
				continue
			}
			if depth > 1 {
				if err := walkInd(p, depth-1); err != nil {
					return err
				}
			} else if err := visit(p, ino); err != nil {
				return err
			}
		}
		return nil
	}
	if in.single != 0 {
		if err := walkInd(in.single, 1); err != nil {
			return err
		}
	}
	if in.double != 0 {
		if err := walkInd(in.double, 2); err != nil {
			return err
		}
	}
	return nil
}

// checkBitmap compares a DRAM mirror against the persistent bitmap.
func (f *FS) checkBitmap(ctx *opCtx, start uint64, mirror []uint64, bits uint64, what string) error {
	buf := make([]byte, BlockSize)
	for i := uint64(0); i < bits; i++ {
		if i%(BlockSize*8) == 0 {
			if err := ctx.readBlock(start+i/(BlockSize*8), buf); err != nil {
				return err
			}
		}
		bit := i % (BlockSize * 8)
		persisted := buf[bit/8]&(1<<(bit%8)) != 0
		if persisted != bitmapGet(mirror, i) {
			return fmt.Errorf("fsck: %s bitmap mirror diverges at bit %d (persist=%v)", what, i, persisted)
		}
	}
	return nil
}
