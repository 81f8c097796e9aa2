//go:build !tincadebug

package core

// debugAlloc gates the allocator's double-free detector: a per-resource
// atomic free bit flipped on every push/pop, panicking at the site of a
// second push of the same block or slot (the far symptom — entry-table
// exhaustion — is otherwise diagnosed long after the culprit returned).
// It also installs the transaction-buffer tracker, which panics on a
// double return of a staged block buffer (txn.go). Production builds
// compile both out; -tags tincadebug keeps them.
const debugAlloc = false
