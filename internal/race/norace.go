//go:build !race

// Package race reports whether the binary was built with the race
// detector. Tests that pin 0 allocations consult it: race builds make
// sync.Pool drop Puts at random, so a pooled path allocates now and
// then by design and only a non-race run can hold it to 0.
package race

// Enabled is true in a -race build.
const Enabled = false
