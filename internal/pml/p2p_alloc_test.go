package pml

import "testing"

// TestP2PPathAllocs pins the blocking point-to-point hot path at zero heap
// allocations per round trip: a blocking eager Send + Recv ping-pong over
// the sm pair harness, both ends counted (AllocsPerRun reads process-wide
// malloc totals, and the peer goroutine runs inside the measured window).
// It corroborates the //gompilint:noalloc annotations on Channel.Send,
// Channel.Recv, Request.Wait, the sm endpoint's Send and Segment.Lookup:
// an eager Send builds no Request, a Recv waits on a pooled one, and the
// channel and route lookups read atomic snapshots.
func TestP2PPathAllocs(t *testing.T) {
	pb, err := newPairBench(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	sch, rch := pb.schans[0], pb.rchans[0]

	const warm, runs = 16, 200
	peerErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		for i := 0; i < warm+runs+1; i++ { // +1: AllocsPerRun's warm-up call
			if _, err := rch.Recv(0, 1, buf); err != nil {
				peerErr <- err
				return
			}
			if err := rch.Send(0, 2, buf); err != nil {
				peerErr <- err
				return
			}
		}
		peerErr <- nil
	}()

	sbuf, rbuf := make([]byte, 8), make([]byte, 8)
	pingPong := func() {
		if err := sch.Send(1, 1, sbuf); err != nil {
			t.Fatal(err)
		}
		if _, err := sch.Recv(1, 2, rbuf); err != nil {
			t.Fatal(err)
		}
	}
	// Warm routes, the request and record pools, the packet arena and the
	// matcher's queue capacities.
	for i := 0; i < warm; i++ {
		pingPong()
	}
	allocs := testing.AllocsPerRun(runs, pingPong)
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
	t.Logf("blocking ping-pong allocs/round trip: %.2f", allocs)
	if raceEnabled {
		return // the ping-pong still runs under -race; only the count is moot
	}
	if allocs != 0 {
		t.Errorf("blocking eager Send+Recv ping-pong allocates %.2f times per round trip, want 0", allocs)
	}
}
