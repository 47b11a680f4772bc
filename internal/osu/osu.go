// Package osu ports the OSU micro-benchmark kernels the paper modified for
// its evaluation (§IV-C): osu_init (MPI startup), osu_latency (ping-pong),
// and osu_mbw_mr (multi-pair bandwidth / message rate), each in a baseline
// (MPI_Init) and a Sessions (MPI_Session_init + MPI_Group_from_pset +
// MPI_Comm_create_from_group) variant.
package osu

import (
	"fmt"
	"time"

	"gompi/mpi"
)

// InitBreakdown times the Sessions initialization sequence of Fig. 1,
// splitting the cost the way the paper's analysis does: session-handle
// initialization (MPI resource bring-up) versus communicator construction.
type InitBreakdown struct {
	Total         time.Duration
	SessionInit   time.Duration
	GroupFromPset time.Duration
	CommCreate    time.Duration
}

// MeasureWorldInit times MPI_Init as osu_init does. The returned cleanup
// finalizes the process; call it outside any timing region.
func MeasureWorldInit(p *mpi.Process) (time.Duration, func() error, error) {
	start := time.Now()
	if err := p.Init(); err != nil {
		return 0, nil, err
	}
	elapsed := time.Since(start)
	return elapsed, p.Finalize, nil
}

// MeasureSessionsInit times the modified osu_init sequence: create a
// session, build the mpi://world group, and construct a communicator
// equivalent to MPI_COMM_WORLD from it.
func MeasureSessionsInit(p *mpi.Process, tag string) (InitBreakdown, func() error, error) {
	var b InitBreakdown
	start := time.Now()

	t0 := time.Now()
	sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
	if err != nil {
		return b, nil, err
	}
	b.SessionInit = time.Since(t0)

	t1 := time.Now()
	grp, err := sess.GroupFromPset(mpi.PsetWorld)
	if err != nil {
		_ = sess.Finalize()
		return b, nil, err
	}
	b.GroupFromPset = time.Since(t1)

	t2 := time.Now()
	comm, err := sess.CommCreateFromGroup(grp, tag, nil, nil)
	if err != nil {
		_ = sess.Finalize()
		return b, nil, err
	}
	b.CommCreate = time.Since(t2)
	b.Total = time.Since(start)

	cleanup := func() error {
		if err := comm.Free(); err != nil {
			return err
		}
		return sess.Finalize()
	}
	return b, cleanup, nil
}

// MeasureCommDup times iters MPI_Comm_dup operations on comm, freeing each
// duplicate outside the timed region, and returns the mean per-iteration
// cost (the quantity of the paper's Fig. 4).
func MeasureCommDup(comm *mpi.Comm, iters int) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < iters; i++ {
		if err := comm.Barrier(); err != nil {
			return 0, err
		}
		start := time.Now()
		dup, err := comm.Dup()
		if err != nil {
			return 0, err
		}
		total += time.Since(start)
		if err := dup.Free(); err != nil {
			return 0, err
		}
	}
	return total / time.Duration(iters), nil
}

// LatencyResult is one osu_latency sample.
type LatencyResult struct {
	Size    int
	Latency time.Duration // one-way (half round-trip)
}

// Latency runs the osu_latency ping-pong kernel between comm ranks 0 and 1
// for each message size: skip warm-up iterations, then iters timed
// round-trips; the reported latency is half the mean round-trip. The
// communicator must have exactly two ranks, as in the original benchmark.
func Latency(comm *mpi.Comm, sizes []int, iters, skip int) ([]LatencyResult, error) {
	if comm.Size() != 2 {
		return nil, fmt.Errorf("osu: latency needs exactly 2 ranks, got %d", comm.Size())
	}
	me := comm.Rank()
	var out []LatencyResult
	for _, size := range sizes {
		sbuf := make([]byte, size)
		rbuf := make([]byte, size)
		var start time.Time
		for i := 0; i < iters+skip; i++ {
			if i == skip {
				if err := comm.Barrier(); err != nil {
					return nil, err
				}
				start = time.Now()
			}
			if me == 0 {
				if err := comm.Send(sbuf, 1, 1); err != nil {
					return nil, err
				}
				if _, err := comm.Recv(rbuf, 1, 1); err != nil {
					return nil, err
				}
			} else {
				if _, err := comm.Recv(rbuf, 0, 1); err != nil {
					return nil, err
				}
				if err := comm.Send(sbuf, 0, 1); err != nil {
					return nil, err
				}
			}
		}
		elapsed := time.Since(start)
		out = append(out, LatencyResult{
			Size:    size,
			Latency: elapsed / time.Duration(2*iters),
		})
	}
	if err := comm.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

// SyncMode selects the pre-timing synchronization of the mbw_mr kernel —
// the detail behind the paper's Fig. 5b/5c discussion.
type SyncMode int

const (
	// SyncBarrier is the stock osu_mbw_mr behaviour: a single MPI_Barrier
	// before the timing loop. With exCID communicators and many pairs this
	// does NOT complete the CID handshake for every pair, so early window
	// sends still carry extended headers.
	SyncBarrier SyncMode = iota
	// SyncSendrecv adds a pairwise MPI_Sendrecv before the timing loop, as
	// the paper's modified benchmark does; it drives the handshake so both
	// variants then perform identically.
	SyncSendrecv
)

func (m SyncMode) String() string {
	if m == SyncBarrier {
		return "barrier"
	}
	return "sendrecv"
}

// BandwidthResult is one osu_mbw_mr sample.
type BandwidthResult struct {
	Size        int
	BandwidthBs float64 // aggregate bytes/second across all pairs
	MsgRate     float64 // aggregate messages/second
}

// MBwMr runs the osu_mbw_mr kernel: the first half of the ranks send
// windows of messages to their partner in the second half, which replies
// with one acknowledgement per window. All ranks must call it; aggregate
// results are computed at rank 0 (other ranks receive nil results).
func MBwMr(comm *mpi.Comm, sizes []int, window, iters, skip int, sync SyncMode) ([]BandwidthResult, error) {
	n := comm.Size()
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("osu: mbw_mr needs an even rank count >= 2, got %d", n)
	}
	pairs := n / 2
	me := comm.Rank()
	sender := me < pairs
	partner := me + pairs
	if !sender {
		partner = me - pairs
	}

	var out []BandwidthResult
	for _, size := range sizes {
		sbuf := make([]byte, size)
		rbuf := make([]byte, size)
		ack := make([]byte, 4)

		// Stock benchmark: one barrier before the loop (Fig. 5b/5c).
		if err := comm.Barrier(); err != nil {
			return nil, err
		}
		if sync == SyncSendrecv {
			// Paper's modification: synchronize each pair directly, which
			// completes the exCID handshake before timing. The send and
			// receive buffers must not alias: the partner's reply may land
			// while this rank's send is still reading its buffer.
			if _, err := comm.Sendrecv(ack, partner, 900, make([]byte, len(ack)), partner, 900); err != nil {
				return nil, err
			}
		}

		var start time.Time
		for it := 0; it < iters+skip; it++ {
			if it == skip {
				start = time.Now()
			}
			if sender {
				reqs := make([]mpi.Request, 0, window)
				for w := 0; w < window; w++ {
					reqs = append(reqs, comm.Isend(sbuf, partner, 100))
				}
				if err := mpi.WaitAll(reqs...); err != nil {
					return nil, err
				}
				if _, err := comm.Recv(ack, partner, 101); err != nil {
					return nil, err
				}
			} else {
				reqs := make([]mpi.Request, 0, window)
				for w := 0; w < window; w++ {
					reqs = append(reqs, comm.Irecv(rbuf, partner, 100))
				}
				if err := mpi.WaitAll(reqs...); err != nil {
					return nil, err
				}
				if err := comm.Send(ack, partner, 101); err != nil {
					return nil, err
				}
			}
		}
		var local float64
		if sender {
			elapsed := time.Since(start).Seconds()
			local = float64(size*iters*window) / elapsed
		}
		// Aggregate sender bandwidths at every rank (allreduce keeps the
		// kernel collective, like the original's gather at rank 0).
		sum, err := comm.AllreduceFloat64(local, mpi.OpSum)
		if err != nil {
			return nil, err
		}
		if me == 0 {
			out = append(out, BandwidthResult{
				Size:        size,
				BandwidthBs: sum,
				MsgRate:     sum / float64(size),
			})
		}
	}
	if me != 0 {
		return nil, nil
	}
	return out, nil
}

// DefaultSizes is the OSU message-size sweep (1 B .. 4 MB, powers of two),
// truncatable for quick runs.
func DefaultSizes(max int) []int {
	var sizes []int
	for s := 1; s <= max; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}
