//go:build race

package pml

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops a quarter of its Puts at random, so pooled paths allocate and
// allocation counts say nothing about the code.
const raceEnabled = true
