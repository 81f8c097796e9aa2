package fs

import "encoding/binary"

// punchFrom frees every data block of the inode with logical index >=
// keep and zeroes their pointers, implementing POSIX truncate-shrink
// semantics (a later extension must read zeroes, not stale bytes).
// Indirect blocks that become completely empty are freed too.
func (c *opCtx) punchFrom(in *inode, keep uint64) error {
	for l := keep; l < numDirect; l++ {
		if in.direct[l] != 0 {
			if err := c.freeBlock(in.direct[l]); err != nil {
				return err
			}
			in.direct[l] = 0
		}
	}
	if in.single != 0 {
		start := int64(keep) - numDirect
		if start < 0 {
			start = 0
		}
		empty, err := c.punchIndirect(in.single, uint64(start), 1)
		if err != nil {
			return err
		}
		if empty {
			if err := c.freeBlock(in.single); err != nil {
				return err
			}
			in.single = 0
		}
	}
	if in.double != 0 {
		start := int64(keep) - numDirect - ptrsPerBlock
		if start < 0 {
			start = 0
		}
		empty, err := c.punchIndirect(in.double, uint64(start), 2)
		if err != nil {
			return err
		}
		if empty {
			if err := c.freeBlock(in.double); err != nil {
				return err
			}
			in.double = 0
		}
	}
	return nil
}

// punchIndirect frees everything an indirect block references at logical
// indices >= startIdx (relative to this block's coverage) and reports
// whether the block is empty afterwards. depth 1 slots hold data
// pointers; depth 2 slots hold depth-1 indirect blocks, each covering
// ptrsPerBlock indices.
//
// The recursion needs a buffer per level, drawn from the free list.
func (c *opCtx) punchIndirect(blk, startIdx uint64, depth int) (bool, error) {
	buf := c.f.getBuf()
	defer c.f.putBuf(buf)
	if err := c.readBlock(blk, buf); err != nil {
		return false, err
	}
	dirty := false
	empty := true
	span := uint64(1)
	if depth > 1 {
		span = ptrsPerBlock
	}
	for i := uint64(0); i < ptrsPerBlock; i++ {
		p := binary.LittleEndian.Uint64(buf[i*8:])
		if p == 0 {
			continue
		}
		lo := i * span
		hi := lo + span
		switch {
		case hi <= startIdx:
			// Entirely kept.
			empty = false
		case lo >= startIdx:
			// Entirely punched.
			if depth > 1 {
				if _, err := c.punchIndirect(p, 0, depth-1); err != nil {
					return false, err
				}
			}
			if err := c.freeBlock(p); err != nil {
				return false, err
			}
			binary.LittleEndian.PutUint64(buf[i*8:], 0)
			dirty = true
		default:
			// Straddles the boundary (depth > 1 only).
			childEmpty, err := c.punchIndirect(p, startIdx-lo, depth-1)
			if err != nil {
				return false, err
			}
			if childEmpty {
				if err := c.freeBlock(p); err != nil {
					return false, err
				}
				binary.LittleEndian.PutUint64(buf[i*8:], 0)
				dirty = true
			} else {
				empty = false
			}
		}
	}
	if dirty {
		c.writeBlock(blk, buf)
	}
	return empty, nil
}

// zeroTail zeroes the bytes of the block containing byte offset `from`
// starting at that offset, so data beyond the new EOF reads as zero.
func (c *opCtx) zeroTail(in inode, from uint64) error {
	bo := int(from % BlockSize)
	if bo == 0 {
		return nil
	}
	_, phys, err := c.bmap(in, from/BlockSize, false)
	if err != nil || phys == 0 {
		return err
	}
	return c.mutateBlock(phys, func(b []byte) {
		for i := bo; i < BlockSize; i++ {
			b[i] = 0
		}
	})
}
