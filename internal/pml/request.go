package pml

import (
	"errors"
	"sync"
)

// ErrTruncate is reported when an incoming message is longer than the
// posted receive buffer (MPI_ERR_TRUNCATE).
var ErrTruncate = errors.New("pml: message truncated: receive buffer too small")

// ErrClosed is reported on requests outstanding when the engine shuts down.
var ErrClosed = errors.New("pml: engine closed")

// ErrPeerFailed is reported on operations pending toward a process the
// runtime has declared dead (the ULFM-style MPI_ERR_PROC_FAILED), so
// survivors unblock instead of hanging in receives that can never
// complete — a prerequisite of the paper's §II-C roll-forward model.
var ErrPeerFailed = errors.New("pml: peer process failed")

// ErrRevoked is reported on every operation — pending and future — of a
// communicator that any member revoked (the ULFM-style MPI_ERR_REVOKED).
// Revocation is how a rank that observed a process failure interrupts
// survivor-to-survivor operations that would otherwise block forever on a
// peer that already abandoned the communicator.
var ErrRevoked = errors.New("pml: communicator revoked")

// AnySource matches a message from any rank (MPI_ANY_SOURCE).
const AnySource = -1

// AnyTag matches any application tag, i.e. any tag >= 0 (MPI_ANY_TAG).
// Negative tags are reserved for internal (collective) traffic and are
// never matched by AnyTag.
const AnyTag = -2147483648

// Status describes a completed receive (source and tag are comm-relative).
type Status struct {
	Source int
	Tag    int
	Count  int // bytes received
}

// Request is the completion handle for a nonblocking operation. It carries
// no channel of its own: Wait parks on cond (bound to mu), and complete sets
// the result and broadcasts while still holding mu, so every waiter that
// observes completed also observes status and err. A select-able channel is
// made only when Done asks for one; complete closes it if it exists.
type Request struct {
	mu        sync.Mutex
	cond      sync.Cond
	completed bool
	err       error
	status    Status
	done      chan struct{} // lazily made by Done; nil until then
}

func newRequest() *Request {
	r := &Request{}
	r.cond.L = &r.mu
	return r
}

// closedChan is what Done returns for a request that has already
// completed, so asking a finished request for its channel allocates
// nothing.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// completedRequest returns an already-finished request (eager sends and
// operations rejected before they start).
func completedRequest(st Status, err error) *Request {
	r := newRequest()
	r.completed, r.status, r.err = true, st, err
	return r
}

func (r *Request) complete(st Status, err error) {
	r.mu.Lock()
	if r.completed {
		r.mu.Unlock()
		return
	}
	r.completed = true
	r.status = st
	r.err = err
	if r.done != nil {
		close(r.done)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Wait blocks until the operation completes and returns its status.
//
//gompilint:noalloc
func (r *Request) Wait() (Status, error) {
	r.mu.Lock()
	for !r.completed {
		r.cond.Wait()
	}
	st, err := r.status, r.err
	r.mu.Unlock()
	return st, err
}

// Test reports whether the operation has completed, without blocking.
func (r *Request) Test() (bool, Status, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.completed {
		return false, Status{}, nil
	}
	return true, r.status, r.err
}

// Done exposes a completion channel for select-based waiting. The channel
// is made on the first call before completion; a completed request returns
// the shared closedChan.
func (r *Request) Done() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.completed {
		return closedChan
	}
	if r.done == nil {
		r.done = make(chan struct{})
	}
	return r.done
}

// reqPool recycles the requests of blocking calls (Recv, rendezvous Send,
// Ssend), which never hand their request to the caller.
var reqPool = sync.Pool{New: func() any { return newRequest() }}

func getRequest() *Request { return reqPool.Get().(*Request) }

// waitPooled waits on a request from getRequest and recycles it. Reuse is
// safe because a request is completed by exactly one party, and only after
// that party has taken the request's record out of the queue or pending map
// that referenced it (posted queues under the channel lock, pendSend and
// pendRecv under pendMu). Once Wait has returned, complete has released
// r.mu and nothing else holds the request, so no late completion can reach
// the next operation that draws it from the pool.
func waitPooled(r *Request) (Status, error) {
	st, err := r.Wait()
	r.completed, r.status, r.err, r.done = false, Status{}, nil, nil
	reqPool.Put(r)
	return st, err
}

// WaitAll waits for every request and returns the first error encountered.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
