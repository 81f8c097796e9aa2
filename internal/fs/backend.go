// Package fs implements a 4KB-block journal-agnostic file system — the
// Ext4 stand-in of the evaluation. Every mutating operation is expressed
// as a block-level transaction against a pluggable Backend, so the same
// file system runs in three consistency modes:
//
//   - Tinca mode: transactions map 1:1 onto Tinca commits (the paper's
//     prototype replaces JBD2's start_this_handle /
//     jbd2_journal_commit_transaction with tinca_init_txn / tinca_commit);
//   - journal mode: transactions are committed to a JBD2-style redo
//     journal and checkpointed later (Ext4 data journalling — the Classic
//     stack);
//   - direct mode: transactions write home locations in place with no
//     journal (the "Ext4 without journaling" baseline of Figures 3/4).
//
// The file system provides data consistency (both metadata and file data
// are in every transaction), the level the paper targets (Section 2.3).
package fs

// Backend is the block-transaction interface the file system runs on.
// Implementations live in internal/stack, one per consistency mode.
type Backend interface {
	// ReadBlock copies the committed contents of block no into p
	// (BlockSize bytes).
	ReadBlock(no uint64, p []byte) error
	// Begin starts a transaction.
	Begin() BackendTxn
	// Sync makes all committed transactions durable and, in journal mode,
	// gives the journal a chance to checkpoint.
	Sync() error
	// Close flushes everything and shuts the backend down.
	Close() error
}

// ConcurrentReader is an optional capability interface: a Backend that
// also implements it — and reports true — promises that ReadBlock is safe
// to call from multiple goroutines concurrently, including concurrently
// with Begin/Commit on other goroutines. The file system then serves
// data-path reads under a shared lock instead of the exclusive operation
// lock. Backends that serialize internally (the journal and direct modes)
// simply don't implement it and keep the fully serialized behavior.
type ConcurrentReader interface {
	ConcurrentReads() bool
}

// BlockView is a zero-copy window onto the committed contents of one
// block, returned by a ViewReader backend. Bytes stays valid (a stable
// snapshot) until Close; the caller must not write through it and must
// Close exactly once.
type BlockView interface {
	// Bytes returns the BlockSize block contents (nil after Close).
	Bytes() []byte
	// Close releases the view.
	Close() error
}

// ViewReader is an optional capability interface: a Backend that also
// implements it can serve committed block contents without copying them
// (the Tinca backend pins the NVM block and aliases its bytes). The file
// system's ReadAtView uses it when present and degrades to private
// copies otherwise. A ViewReader backend must also support concurrent
// reads (see ConcurrentReader): views outlive the FS locks.
type ViewReader interface {
	// ReadBlockView returns a stable zero-copy view of block no.
	ReadBlockView(no uint64) (BlockView, error)
}

// BackendTxn is one atomic batch of block updates.
type BackendTxn interface {
	// Write stages the new contents of block no (BlockSize bytes). It
	// must copy data: the file system recycles the buffer once Commit
	// returns.
	Write(no uint64, data []byte)
	// Revoke declares that block no was freed by this transaction
	// (truncate/unlink): a journal must not resurrect its old contents
	// during replay (JBD2's revoke blocks, paper Figure 2(b)). Backends
	// without a journal may ignore it.
	Revoke(no uint64)
	// Commit atomically applies the staged updates.
	Commit() error
	// Abort discards the transaction.
	Abort()
}
