//go:build !linux

package main

// allowedCPUs reports no CPUs where affinity is not supported, so the
// process is never pinned.
func allowedCPUs() []int { return nil }

func pinProcess(cpus []int) {}
