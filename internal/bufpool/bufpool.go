// Package bufpool recycles 4KB block-sized scratch buffers: the core
// cache's miss fills, eviction write-backs, destages, checkpoints,
// copying read views and staged transaction blocks; the object tier's
// fetch and upload paths; the JBD journal's descriptor and replay blocks;
// and the file system's private view copies. The simulated devices copy
// into or out of the buffer synchronously, so most buffers never outlive
// the call that borrowed them; a staged transaction block lives from
// Txn.Write until its Commit or Abort returns. Callers must not keep a
// reference after Put, and must not Put a buffer they did not Get.
//
// The pool holds *[BlockSize]byte, so a Get+Put round trip allocates
// nothing: converting the slice back to an array pointer is free, whereas
// pooling *[]byte would move a fresh slice header to the heap on every
// Put.
package bufpool

import "sync"

// BlockSize matches the cache/FS/disk transfer unit (4KB).
const BlockSize = 4096

var pool = sync.Pool{
	New: func() any { return new([BlockSize]byte) },
}

// Get borrows a BlockSize scratch buffer. Contents are arbitrary (the
// previous user's data); overwrite before reading.
func Get() []byte {
	return pool.Get().(*[BlockSize]byte)[:]
}

// Put returns a buffer obtained from Get. Putting a slice of the wrong
// length would poison later Gets, so it is rejected loudly.
func Put(b []byte) {
	if len(b) != BlockSize {
		panic("bufpool: Put of non-BlockSize buffer")
	}
	pool.Put((*[BlockSize]byte)(b))
}
