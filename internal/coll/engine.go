package coll

import "runtime"

// The schedule engine. run executes a compiled schedule's DAG over the
// nonblocking Transport: every step whose dependencies have completed is
// issued immediately, so independent exchanges overlap. One-shot
// collectives run it with fresh state; persistent collectives reuse
// preallocated state so every round is allocation-free.

// Req is the completion handle of a nonblocking transport operation. Once
// Wait returns or Test reports done, the handle is spent: the engine drops
// it and never calls it again, which lets transports recycle the
// underlying record.
type Req interface {
	// Wait blocks until the operation completes.
	Wait() error
	// Test polls for completion.
	Test() (bool, error)
}

// execState is the engine's mutable per-run state, separated from the
// immutable schedule so persistent collectives can preallocate it once and
// run every Start without allocating.
type execState struct {
	ndep    []int32 // remaining unmet dependencies per step
	sreq    []Req   // outstanding send/recv request per step
	rreq    []Req   // second request of a sendrecv step
	ready   []int32 // steps whose dependencies are all met, not yet issued
	pending []int32 // steps with outstanding requests
}

// newExecState sizes the state for one schedule.
func newExecState(s *Schedule) *execState {
	n := len(s.steps)
	return &execState{
		ndep:    make([]int32, n),
		sreq:    make([]Req, n),
		rreq:    make([]Req, n),
		ready:   make([]int32, 0, n),
		pending: make([]int32, 0, n),
	}
}

// reset rewinds the state for another run of the same schedule.
//
//gompilint:noalloc
func (x *execState) reset(s *Schedule) {
	copy(x.ndep, s.ndep)
	for i := range x.sreq {
		x.sreq[i] = nil
		x.rreq[i] = nil
	}
	x.ready = append(x.ready[:0], s.roots...)
	x.pending = x.pending[:0]
}

// run executes the DAG over a nonblocking transport. Strategy: issue every
// ready step; local steps (reduce, copy) complete inline, communication
// steps go to the pending set. When nothing is ready, poll the pending
// requests; if a full poll makes no progress, block on the oldest pending
// request — safe, because a posted request completes without further
// action from this member, so blocking can never add a cycle the schedule
// did not already have.
//
// run is the persistent-collective inner loop: every slice it touches was
// sized in newExecState, so steady-state rounds allocate nothing (the
// self-appends below reuse the preallocated backing arrays; growth there is
// a capacity bug TestPersistentCollStartAllocs would catch).
//
//gompilint:noalloc
func run(t Transport, s *Schedule, bind *binding, x *execState) error {
	x.reset(s)
	completed := 0
	total := len(s.steps)

	complete := func(i int32) {
		completed++
		for _, nxt := range s.succ[i] {
			x.ndep[nxt]--
			if x.ndep[nxt] == 0 {
				x.ready = append(x.ready, nxt)
			}
		}
	}

	// On error, return immediately. Outstanding requests are abandoned
	// rather than drained: after a peer failure a matching message may
	// never arrive, so draining could hang, and the PML completes poisoned
	// requests on its own. A schedule that errored must be reset (run
	// again) or freed, never trusted to have written its buffers.
	for completed < total {
		// Issue everything that is ready.
		for len(x.ready) > 0 {
			i := x.ready[len(x.ready)-1]
			x.ready = x.ready[:len(x.ready)-1]
			st := &s.steps[i]
			switch st.kind {
			case stepReduce:
				if err := bind.rf(bind.resolve(st.a), bind.resolve(st.b), st.count); err != nil {
					return err
				}
				complete(i)
			case stepCopy:
				copy(bind.resolve(st.a), bind.resolve(st.b))
				complete(i)
			case stepSend:
				r, err := t.Isend(bind.resolve(st.a), st.peer, bind.baseTag-st.tagOff)
				if err != nil {
					return err
				}
				x.sreq[i] = r
				x.pending = append(x.pending, i)
			case stepRecv:
				r, err := t.Irecv(bind.resolve(st.a), st.peer, bind.baseTag-st.tagOff)
				if err != nil {
					return err
				}
				x.sreq[i] = r
				x.pending = append(x.pending, i)
			case stepSendrecv:
				rr, err := t.Irecv(bind.resolve(st.b), st.peer2, bind.baseTag-st.tagOff)
				if err != nil {
					return err
				}
				x.rreq[i] = rr
				sr, err := t.Isend(bind.resolve(st.a), st.peer, bind.baseTag-st.tagOff)
				if err != nil {
					return err
				}
				x.sreq[i] = sr
				x.pending = append(x.pending, i)
			}
		}
		if completed == total {
			break
		}

		// Poll the pending requests, compacting completed ones away.
		progress := false
		kept := x.pending[:0]
		for _, i := range x.pending {
			done, err := testStep(x, i)
			if err != nil {
				x.pending = kept
				return err
			}
			if done {
				complete(i)
				progress = true
			} else {
				kept = append(kept, i)
			}
		}
		x.pending = kept

		if !progress && len(x.ready) == 0 && len(x.pending) > 0 {
			// Nothing local to do: block on the oldest pending step.
			i := x.pending[0]
			x.pending = append(x.pending[:0], x.pending[1:]...)
			if err := waitStep(x, i); err != nil {
				return err
			}
			complete(i)
		} else if !progress {
			runtime.Gosched()
		}
	}
	return nil
}

// testStep polls the request(s) of a communication step, dropping each
// handle as soon as it reports completion (the Req contract).
//
//gompilint:noalloc
func testStep(x *execState, i int32) (bool, error) {
	if r := x.sreq[i]; r != nil {
		done, err := r.Test()
		if err != nil {
			return true, err
		}
		if !done {
			return false, nil
		}
		x.sreq[i] = nil
	}
	if r := x.rreq[i]; r != nil {
		done, err := r.Test()
		if err != nil {
			return true, err
		}
		if !done {
			return false, nil
		}
		x.rreq[i] = nil
	}
	return true, nil
}

// waitStep blocks on the request(s) of a communication step.
//
//gompilint:noalloc
func waitStep(x *execState, i int32) error {
	if r := x.sreq[i]; r != nil {
		if err := r.Wait(); err != nil {
			return err
		}
		x.sreq[i] = nil
	}
	if r := x.rreq[i]; r != nil {
		err := r.Wait()
		x.rreq[i] = nil
		return err
	}
	return nil
}
