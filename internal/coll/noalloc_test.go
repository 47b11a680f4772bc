package coll

import "testing"

// TestPersistentCollStartAllocs corroborates the //gompilint:noalloc
// annotations on the persistent-collective hot path (run, testStep,
// waitStep, execState.reset) at runtime: once an Exec is bound, driving a
// full 8-rank allreduce round — across every rank's goroutine, since
// AllocsPerRun counts process-wide mallocs — allocates nothing. The
// schedule, engine state, and request records were all sized at *Init
// time; a regression here means someone put an allocation back on the
// per-round path.
func TestPersistentCollStartAllocs(t *testing.T) {
	cb, err := newCollBench(8, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	// Validate the harness once, then warm every pool and queue capacity.
	if err := cb.CheckStep(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := cb.Step(); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := cb.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("persistent collective round allocated %.1f times per step; the //gompilint:noalloc engine loop must stay allocation-free", allocs)
	}
}
