package fs

import "encoding/binary"

// bmap resolves the logical block index l of an inode to a physical block
// number, returning 0 when the extent is a hole. When alloc is true,
// missing data and indirect blocks are allocated (and zeroed) on the way;
// the possibly-updated inode is returned for the caller to persist.
func (c *opCtx) bmap(in inode, l uint64, alloc bool) (inode, uint64, error) {
	if l >= MaxFileBlocks {
		return in, 0, ErrTooLarge
	}
	switch {
	case l < numDirect:
		if in.direct[l] == 0 && alloc {
			blk, err := c.allocZeroedBlock()
			if err != nil {
				return in, 0, err
			}
			in.direct[l] = blk
		}
		return in, in.direct[l], nil

	case l < numDirect+ptrsPerBlock:
		idx := l - numDirect
		if in.single == 0 {
			if !alloc {
				return in, 0, nil
			}
			blk, err := c.allocZeroedBlock()
			if err != nil {
				return in, 0, err
			}
			in.single = blk
		}
		phys, err := c.indirectSlot(in.single, idx, alloc)
		return in, phys, err

	default:
		idx := l - numDirect - ptrsPerBlock
		if in.double == 0 {
			if !alloc {
				return in, 0, nil
			}
			blk, err := c.allocZeroedBlock()
			if err != nil {
				return in, 0, err
			}
			in.double = blk
		}
		l1, err := c.indirectSlot(in.double, idx/ptrsPerBlock, alloc)
		if err != nil || l1 == 0 {
			return in, 0, err
		}
		phys, err := c.indirectSlot(l1, idx%ptrsPerBlock, alloc)
		return in, phys, err
	}
}

// indirectSlot reads pointer slot idx of indirect block ind, allocating a
// data (or next-level indirect) block into the slot when alloc is set.
// It reads into the ib scratch block, which nothing it calls touches.
func (c *opCtx) indirectSlot(ind, idx uint64, alloc bool) (uint64, error) {
	buf := c.ib[:]
	if err := c.readBlock(ind, buf); err != nil {
		return 0, err
	}
	phys := binary.LittleEndian.Uint64(buf[idx*8:])
	if phys == 0 && alloc {
		blk, err := c.allocZeroedBlock()
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(buf[idx*8:], blk)
		c.writeBlock(ind, buf)
		phys = blk
	}
	return phys, nil
}

// allocZeroedBlock allocates a data block and stages zeroed contents, so
// holes read back as zeroes even through the cache layers.
func (c *opCtx) allocZeroedBlock() (uint64, error) {
	blk, err := c.allocBlock()
	if err != nil {
		return 0, err
	}
	c.writeBlock(blk, zeroBlock[:])
	return blk, nil
}

// freeFileBlocks releases every data and indirect block of the inode
// (truncate to zero / unlink).
func (c *opCtx) freeFileBlocks(in inode) error {
	for i := 0; i < numDirect; i++ {
		if in.direct[i] != 0 {
			if err := c.freeBlock(in.direct[i]); err != nil {
				return err
			}
		}
	}
	if in.single != 0 {
		if err := c.freeIndirect(in.single, 1); err != nil {
			return err
		}
	}
	if in.double != 0 {
		if err := c.freeIndirect(in.double, 2); err != nil {
			return err
		}
	}
	return nil
}

// freeIndirect frees an indirect block of the given depth and everything
// it references. The recursion needs a buffer per level, drawn from the
// free list.
func (c *opCtx) freeIndirect(blk uint64, depth int) error {
	buf := c.f.getBuf()
	defer c.f.putBuf(buf)
	if err := c.readBlock(blk, buf); err != nil {
		return err
	}
	for i := 0; i < ptrsPerBlock; i++ {
		p := binary.LittleEndian.Uint64(buf[i*8:])
		if p == 0 {
			continue
		}
		if depth > 1 {
			if err := c.freeIndirect(p, depth-1); err != nil {
				return err
			}
		} else {
			if err := c.freeBlock(p); err != nil {
				return err
			}
		}
	}
	return c.freeBlock(blk)
}
