package coll

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkAblationPersistentColl contrasts the persistent collective path
// (compile + bind once, Start N times) against full per-call dispatch
// (decision walk, schedule-cache lookup, fresh binding and engine state
// every call) for an 8-rank allreduce over the in-memory mesh. The
// persistent Step path must not allocate.
func BenchmarkAblationPersistentColl(b *testing.B) {
	const ranks, count = 8, 128
	for _, mode := range []struct {
		name       string
		persistent bool
	}{{"persistent", true}, {"percall", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cb, err := newCollBench(ranks, count, mode.persistent)
			if err != nil {
				b.Fatal(err)
			}
			defer cb.Close()
			if err := cb.CheckStep(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cb.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCollBenchModes keeps the benchmark harness honest under the race
// detector: both modes must produce the verified reduction repeatedly.
func TestCollBenchModes(t *testing.T) {
	for _, persistent := range []bool{true, false} {
		cb, err := newCollBench(4, 32, persistent)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := cb.CheckStep(); err != nil {
				t.Fatalf("persistent=%v step %d: %v", persistent, i, err)
			}
		}
		cb.Close()
	}
}

// collBench drives one allreduce shape across every rank of an nbMesh in
// lockstep: persistent worker goroutines for ranks 1..N-1 trigger once per
// iteration over unbuffered channels, rank 0 runs inline so the benchmark
// loop measures it. Mode "persistent" binds one Exec per rank up front and
// only Runs it per iteration; mode "percall" goes through the full Module
// dispatch (pick, schedule cache, binding, fresh engine state) every time.
type collBench struct {
	mods    []*Module
	execs   []*Exec // persistent mode
	count   int
	in, out [][]byte
	trigger []chan struct{}
	done    []chan error
	wg      sync.WaitGroup
}

// benchTag is the collective tag window the harness runs in. One window is
// enough: per-(peer, tag) FIFO keeps back-to-back iterations ordered.
const benchTag = -16

// newCollBench builds the harness: ranks members reducing count int64-wide
// elements. persistent selects the setup-once path.
func newCollBench(ranks, count int, persistent bool) (*collBench, error) {
	fw, err := NewFramework([]string{"tuned", "basic"}, nil)
	if err != nil {
		return nil, err
	}
	mesh := newNBMesh(ranks)
	cb := &collBench{count: count}
	for r := 0; r < ranks; r++ {
		m := fw.NewModule(mesh.Rank(r), nil, "bench")
		cb.mods = append(cb.mods, m)
		in := make([]byte, count*8)
		out := make([]byte, count*8)
		for i := range in {
			in[i] = byte(r + i)
		}
		cb.in = append(cb.in, in)
		cb.out = append(cb.out, out)
		if persistent {
			ex, err := m.PrepareAllreduce(in, out, count, 8, sumI64, true, benchTag)
			if err != nil {
				return nil, err
			}
			cb.execs = append(cb.execs, ex)
		}
	}
	for r := 1; r < ranks; r++ {
		cb.trigger = append(cb.trigger, make(chan struct{}))
		cb.done = append(cb.done, make(chan error))
		cb.wg.Add(1)
		go cb.worker(r, cb.trigger[r-1], cb.done[r-1])
	}
	return cb, nil
}

func (cb *collBench) worker(r int, trigger <-chan struct{}, done chan<- error) {
	defer cb.wg.Done()
	for range trigger {
		done <- cb.iter(r)
	}
}

func (cb *collBench) iter(r int) error {
	if cb.execs != nil {
		return cb.execs[r].Run()
	}
	return cb.mods[r].Allreduce(cb.in[r], cb.out[r], cb.count, 8, sumI64, true, benchTag)
}

// Step runs one lockstep iteration across every rank and returns the first
// error. The rank-0 leg runs on the calling goroutine; in persistent mode
// the whole call performs zero allocations.
func (cb *collBench) Step() error {
	for _, t := range cb.trigger {
		t <- struct{}{}
	}
	err := cb.iter(0)
	for _, d := range cb.done {
		if werr := <-d; werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// Close stops the worker goroutines.
func (cb *collBench) Close() {
	for _, t := range cb.trigger {
		close(t)
	}
	cb.wg.Wait()
}

// CheckStep sanity-runs one iteration and validates rank 0's output
// against an independently computed reference, so a broken harness cannot
// silently publish numbers.
func (cb *collBench) CheckStep() error {
	if err := cb.Step(); err != nil {
		return err
	}
	want := make([]byte, cb.count*8)
	tmp := make([]byte, cb.count*8)
	copy(want, cb.in[0])
	for r := 1; r < len(cb.mods); r++ {
		copy(tmp, cb.in[r])
		if err := sumI64(want, tmp, cb.count); err != nil {
			return err
		}
	}
	for i := range want {
		if cb.out[0][i] != want[i] {
			return fmt.Errorf("collbench: output byte %d = %#x, want %#x", i, cb.out[0][i], want[i])
		}
	}
	return nil
}
