package fs

import (
	"encoding/binary"
	"strings"
)

// Directory entries are fixed 64-byte records packed into the directory
// file's data blocks:
//
//	0..7   inode number (0 = free slot)
//	8      name length
//	9..63  name bytes
const (
	direntSize    = 64
	direntsPerBlk = BlockSize / direntSize
	maxNameLen    = direntSize - 9
	direntInoOff  = 0
	direntLenOff  = 8
	direntNameOff = 9
)

func encodeDirent(b []byte, ino uint64, name string) {
	for i := range b[:direntSize] {
		b[i] = 0
	}
	binary.LittleEndian.PutUint64(b[direntInoOff:], ino)
	b[direntLenOff] = byte(len(name))
	copy(b[direntNameOff:], name)
}

// direntNameBytes returns dirent b's name bytes, in place.
func direntNameBytes(b []byte) []byte {
	n := int(b[direntLenOff])
	if n > maxNameLen {
		n = maxNameLen
	}
	return b[direntNameOff : direntNameOff+n]
}

func direntName(b []byte) string { return string(direntNameBytes(b)) }

// splitPath normalizes a slash-separated absolute or relative path into
// components. Empty components are dropped; "." and ".." are rejected (the
// file system has no per-directory dot entries).
func splitPath(path string) ([]string, error) {
	n, err := checkPath(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for name, i := nextComponent(path, 0); name != ""; name, i = nextComponent(path, i) {
		out = append(out, name)
	}
	return out, nil
}

// nextComponent returns the first component of path at or after byte i
// that splitPath keeps (empty and "." components are skipped), and the
// index just past it. name is "" once no component is left. It builds
// nothing: the name is a substring of path.
func nextComponent(path string, i int) (name string, next int) {
	for i < len(path) {
		end := len(path)
		if j := strings.IndexByte(path[i:], '/'); j >= 0 {
			end = i + j
		}
		name, i = path[i:end], end+1
		if name != "" && name != "." {
			return name, i
		}
	}
	return "", len(path)
}

// checkPath applies splitPath's rules to every component of path, in
// order, and returns the component count. Callers validate the whole path
// before walking it, so a bad component fails before any lookup.
func checkPath(path string) (int, error) {
	n := 0
	for name, i := nextComponent(path, 0); name != ""; name, i = nextComponent(path, i) {
		if name == ".." {
			return 0, ErrBadPath
		}
		if len(name) > maxNameLen {
			return 0, ErrNameLen
		}
		n++
	}
	return n, nil
}

// direntIs reports whether dirent rec holds name (without allocating).
func direntIs(rec []byte, name string) bool { return string(direntNameBytes(rec)) == name }

// lookupDir finds name within directory inode dirIno, returning the child
// inode number, or 0 when absent.
func (c *opCtx) lookupDir(dirIno uint64, name string) (uint64, error) {
	din, err := c.readInode(dirIno)
	if err != nil {
		return 0, err
	}
	if din.mode != ModeDir {
		return 0, ErrNotDir
	}
	nblocks := (din.size + BlockSize - 1) / BlockSize
	buf := c.db[:]
	for l := uint64(0); l < nblocks; l++ {
		_, phys, err := c.bmap(din, l, false)
		if err != nil {
			return 0, err
		}
		if phys == 0 {
			continue
		}
		if err := c.readBlock(phys, buf); err != nil {
			return 0, err
		}
		for i := 0; i < direntsPerBlk; i++ {
			rec := buf[i*direntSize : (i+1)*direntSize]
			ino := binary.LittleEndian.Uint64(rec[direntInoOff:])
			if ino != 0 && direntIs(rec, name) {
				return ino, nil
			}
		}
	}
	return 0, nil
}

// resolve walks path components from the root, following symlinks (with a
// depth limit against cycles), returning the final inode number.
func (c *opCtx) resolve(path string) (uint64, error) {
	return c.resolveDepth(path, 0)
}

// maxSymlinkDepth bounds symlink chains (ELOOP equivalent).
const maxSymlinkDepth = 8

func (c *opCtx) resolveDepth(path string, depth int) (uint64, error) {
	if depth > maxSymlinkDepth {
		return 0, ErrLinkLoop
	}
	if _, err := checkPath(path); err != nil {
		return 0, err
	}
	ino := uint64(rootIno)
	for name, i := nextComponent(path, 0); name != ""; name, i = nextComponent(path, i) {
		child, err := c.lookupDir(ino, name)
		if err != nil {
			return 0, err
		}
		if child == 0 {
			return 0, ErrNotExist
		}
		in, err := c.readInode(child)
		if err != nil {
			return 0, err
		}
		if in.mode == ModeSymlink {
			target, err := c.readLinkTarget(in)
			if err != nil {
				return 0, err
			}
			// Targets are absolute paths in this file system.
			child, err = c.resolveDepth(target, depth+1)
			if err != nil {
				return 0, err
			}
		}
		ino = child
	}
	return ino, nil
}

// readLinkTarget reads a symlink inode's target path from its first data
// block (the size field gives the target length).
func (c *opCtx) readLinkTarget(in inode) (string, error) {
	if in.size == 0 || in.size > BlockSize {
		return "", ErrBadPath
	}
	if in.direct[0] == 0 {
		return "", ErrBadPath
	}
	if err := c.readBlock(in.direct[0], c.db[:]); err != nil {
		return "", err
	}
	return string(c.db[:in.size]), nil
}

// resolveParent returns the inode of path's parent directory and the final
// component name.
func (c *opCtx) resolveParent(path string) (uint64, string, error) {
	n, err := checkPath(path)
	if err != nil {
		return 0, "", err
	}
	if n == 0 {
		return 0, "", ErrBadPath
	}
	ino := uint64(rootIno)
	name, i := nextComponent(path, 0)
	for ; n > 1; n-- {
		child, err := c.lookupDir(ino, name)
		if err != nil {
			return 0, "", err
		}
		if child == 0 {
			return 0, "", ErrNotExist
		}
		ino = child
		name, i = nextComponent(path, i)
	}
	return ino, name, nil
}

// addDirent inserts (name -> ino) into directory dirIno, reusing a free
// slot or extending the directory file.
func (c *opCtx) addDirent(dirIno, ino uint64, name string) error {
	din, err := c.readInode(dirIno)
	if err != nil {
		return err
	}
	if din.mode != ModeDir {
		return ErrNotDir
	}
	nblocks := (din.size + BlockSize - 1) / BlockSize
	buf := c.db[:]
	for l := uint64(0); l < nblocks; l++ {
		_, phys, err := c.bmap(din, l, false)
		if err != nil {
			return err
		}
		if phys == 0 {
			continue
		}
		if err := c.readBlock(phys, buf); err != nil {
			return err
		}
		for i := 0; i < direntsPerBlk; i++ {
			rec := buf[i*direntSize : (i+1)*direntSize]
			if binary.LittleEndian.Uint64(rec[direntInoOff:]) == 0 {
				encodeDirent(rec, ino, name)
				c.writeBlock(phys, buf)
				return nil
			}
		}
	}
	// No free slot: extend the directory by one block.
	din2, phys, err := c.bmap(din, nblocks, true)
	if err != nil {
		return err
	}
	din = din2
	clear(buf)
	encodeDirent(buf[:direntSize], ino, name)
	c.writeBlock(phys, buf)
	din.size = (nblocks + 1) * BlockSize
	din.mtime = c.f.now()
	return c.writeInode(dirIno, din)
}

// removeDirent deletes name from directory dirIno, returning the removed
// child's inode number.
func (c *opCtx) removeDirent(dirIno uint64, name string) (uint64, error) {
	din, err := c.readInode(dirIno)
	if err != nil {
		return 0, err
	}
	if din.mode != ModeDir {
		return 0, ErrNotDir
	}
	nblocks := (din.size + BlockSize - 1) / BlockSize
	buf := c.db[:]
	for l := uint64(0); l < nblocks; l++ {
		_, phys, err := c.bmap(din, l, false)
		if err != nil {
			return 0, err
		}
		if phys == 0 {
			continue
		}
		if err := c.readBlock(phys, buf); err != nil {
			return 0, err
		}
		for i := 0; i < direntsPerBlk; i++ {
			rec := buf[i*direntSize : (i+1)*direntSize]
			ino := binary.LittleEndian.Uint64(rec[direntInoOff:])
			if ino != 0 && direntIs(rec, name) {
				clear(rec)
				c.writeBlock(phys, buf)
				return ino, nil
			}
		}
	}
	return 0, ErrNotExist
}

// listDir returns the names in directory dirIno.
func (c *opCtx) listDir(dirIno uint64) ([]string, error) {
	din, err := c.readInode(dirIno)
	if err != nil {
		return nil, err
	}
	if din.mode != ModeDir {
		return nil, ErrNotDir
	}
	nblocks := (din.size + BlockSize - 1) / BlockSize
	buf := c.db[:]
	var names []string
	for l := uint64(0); l < nblocks; l++ {
		_, phys, err := c.bmap(din, l, false)
		if err != nil {
			return nil, err
		}
		if phys == 0 {
			continue
		}
		if err := c.readBlock(phys, buf); err != nil {
			return nil, err
		}
		for i := 0; i < direntsPerBlk; i++ {
			rec := buf[i*direntSize : (i+1)*direntSize]
			if binary.LittleEndian.Uint64(rec[direntInoOff:]) != 0 {
				names = append(names, direntName(rec))
			}
		}
	}
	return names, nil
}
