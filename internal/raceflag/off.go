//go:build !race

// Package raceflag reports whether the binary was built with the race
// detector. Allocation tests consult it: under -race, sync.Pool drops a
// share of its Puts on purpose, so pooled paths allocate by design.
package raceflag

// Enabled is true when built with -race.
const Enabled = false
