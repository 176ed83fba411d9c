//go:build race

// Package raceflag reports whether the race detector is compiled in. Under
// it sync.Pool drops a random share of Puts, so tests that assert the
// steady-state allocation count of a pooled path skip that assertion.
package raceflag

// Enabled is true in -race builds.
const Enabled = true
