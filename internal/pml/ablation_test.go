package pml

import (
	"fmt"
	"sync"
	"testing"

	"gompi/internal/btl"
	btlsm "gompi/internal/btl/sm"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// BenchmarkAblationPML measures the matching engine (DESIGN.md §5b) on an
// eager message stream at 2, 8, and 16 concurrent pairs, in two shapes.
// shape=pairs is osu_mbw_mr-like pairwise traffic over one channel per
// pair (shallow queues: the cost is locking and allocation). shape=incast
// streams every pair into one receiver channel with a window of
// specific-source receives posted per sender (deep interleaved queues,
// which the per-source buckets match in O(1)). ns/op is the aggregate
// per-message cost — message rate is 1e9/(ns/op) — and allocs/op is the
// eager-path allocation count the pooling targets. EXPERIMENTS.md keeps
// the last list-vs-bucket comparison from before the list engine retired.
func BenchmarkAblationPML(b *testing.B) {
	for _, pairs := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("shape=pairs/pairs=%d", pairs), func(b *testing.B) {
			pb, err := newPairBench(pairs, 64)
			if err != nil {
				b.Fatal(err)
			}
			defer pb.Close()
			b.ReportAllocs()
			b.ResetTimer()
			if err := pb.Run(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
	for _, pairs := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("shape=incast/pairs=%d", pairs), func(b *testing.B) {
			ib, err := newIncastBench(pairs, 128)
			if err != nil {
				b.Fatal(err)
			}
			defer ib.Close()
			b.ReportAllocs()
			b.ResetTimer()
			if err := ib.Run(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestEagerSendAllocDrop pins the pooled eager send path — packet build,
// inline sm delivery and match on the receiving engine (which runs on the
// sender's goroutine), and completion — at no more than one allocation per
// message. The single allocation is the send Request itself; the packet
// arena and the recycled match records cover everything else. The retired
// list engine allocated three here.
func TestEagerSendAllocDrop(t *testing.T) {
	pb, err := newPairBench(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	sch, rch := pb.schans[0], pb.rchans[0]
	sbuf := make([]byte, 8)
	rbuf := make([]byte, 8)
	// Warm routes, pools, and queue capacities.
	for i := 0; i < 8; i++ {
		r := rch.Irecv(0, 1, rbuf)
		if _, err := sch.Isend(1, 1, sbuf).Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	reqs := make([]*Request, 0, runs+1)
	for i := 0; i < runs+1; i++ { // +1: AllocsPerRun's warm-up call
		reqs = append(reqs, rch.Irecv(0, 1, rbuf))
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := sch.Isend(1, 1, sbuf).Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if err := WaitAll(reqs...); err != nil {
		t.Fatal(err)
	}
	t.Logf("eager send allocs/op: %.1f", allocs)
	if allocs > 1 {
		t.Errorf("eager send path allocates %.1f times per message, want <= 1", allocs)
	}
}

// pairBench is the multi-pair message-rate harness behind
// BenchmarkAblationPML: two engines on one simulated node,
// wired over the sm BTL (inline delivery, no fabric latency model), with
// one channel per concurrent pair. Every pair runs a sender and a receiver
// goroutine, so the harness measures matching-lock contention across
// channels and per-message allocation — and nothing else.
type pairBench struct {
	sender   *Engine
	receiver *Engine
	schans   []*Channel
	rchans   []*Channel
	window   int
}

// newPairBench builds the harness with `pairs` channels and a send window
// of `window` messages per credit round trip.
func newPairBench(pairs, window int) (*pairBench, error) {
	fabric := simnet.NewFabric(topo.New(topo.Loopback(2), 1))
	seg := fabric.Segment(0)
	nodeOf := func(int) int { return 0 }
	var cfg Config
	pb := &pairBench{
		sender:   NewEngine([]btl.Module{btlsm.New(seg, 0, 0, nodeOf, 0)}, cfg),
		receiver: NewEngine([]btl.Module{btlsm.New(seg, 0, 1, nodeOf, 0)}, cfg),
		window:   window,
	}
	ranks := []int{0, 1}
	for p := 0; p < pairs; p++ {
		sch, err := pb.sender.AddChannel(uint16(p), ExCID{}, false, 0, ranks)
		if err != nil {
			pb.Close()
			return nil, fmt.Errorf("pairbench: %w", err)
		}
		rch, err := pb.receiver.AddChannel(uint16(p), ExCID{}, false, 1, ranks)
		if err != nil {
			pb.Close()
			return nil, fmt.Errorf("pairbench: %w", err)
		}
		pb.schans = append(pb.schans, sch)
		pb.rchans = append(pb.rchans, rch)
	}
	return pb, nil
}

// Run transfers total 8-byte eager messages split across the pairs
// (osu_mbw_mr-style: the receiver pre-posts a window, grants a credit, the
// sender bursts the window) and returns the first error. Safe to call
// repeatedly.
func (pb *pairBench) Run(total int) error {
	pairs := len(pb.schans)
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs)
	for p := 0; p < pairs; p++ {
		n := total / pairs
		if p < total%pairs {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(2)
		go pb.runRecv(pb.rchans[p], n, &wg, errs)
		go pb.runSend(pb.schans[p], n, &wg, errs)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (pb *pairBench) runRecv(ch *Channel, n int, wg *sync.WaitGroup, errs chan<- error) {
	defer wg.Done()
	bufs := make([]byte, 8*pb.window)
	credit := []byte{1}
	reqs := make([]*Request, 0, pb.window)
	for n > 0 {
		w := pb.window
		if w > n {
			w = n
		}
		reqs = reqs[:0]
		for i := 0; i < w; i++ {
			reqs = append(reqs, ch.Irecv(0, 1, bufs[8*i:8*i+8]))
		}
		if err := ch.Send(0, 2, credit); err != nil {
			errs <- err
			return
		}
		for _, r := range reqs {
			if _, err := r.Wait(); err != nil {
				errs <- err
				return
			}
		}
		n -= w
	}
}

func (pb *pairBench) runSend(ch *Channel, n int, wg *sync.WaitGroup, errs chan<- error) {
	defer wg.Done()
	buf := make([]byte, 8)
	credit := []byte{0}
	for n > 0 {
		w := pb.window
		if w > n {
			w = n
		}
		if _, err := ch.Recv(1, 2, credit); err != nil {
			errs <- err
			return
		}
		for i := 0; i < w; i++ {
			if _, err := ch.Isend(1, 1, buf).Wait(); err != nil {
				errs <- err
				return
			}
		}
		n -= w
	}
}

// Close tears both engines down.
func (pb *pairBench) Close() {
	pb.sender.Close()
	pb.receiver.Close()
}

// incastBench is the deep-queue counterpart of pairBench: `senders` sender
// engines stream into ONE receiver channel, and the receiver keeps a window
// of specific-source receives posted per sender. The posted queue is then
// senders×window deep with interleaved sources — the shape where a
// linear matcher pays O(senders) scans plus an O(queue) splice per
// message, and the per-source buckets pay O(1). This is the incast half of
// osu_mbw_mr seen from the receiver.
type incastBench struct {
	receiver *Engine
	senders  []*Engine
	rch      *Channel
	schans   []*Channel
	window   int
}

// newIncastBench builds one receiver (comm rank 0) plus `senders` sender
// engines (comm ranks 1..senders) over one sm segment and one shared
// channel.
func newIncastBench(senders, window int) (*incastBench, error) {
	fabric := simnet.NewFabric(topo.New(topo.Loopback(senders+1), 1))
	seg := fabric.Segment(0)
	nodeOf := func(int) int { return 0 }
	var cfg Config
	ib := &incastBench{window: window}
	ranks := make([]int, senders+1)
	for i := range ranks {
		ranks[i] = i
	}
	ib.receiver = NewEngine([]btl.Module{btlsm.New(seg, 0, 0, nodeOf, 0)}, cfg)
	rch, err := ib.receiver.AddChannel(0, ExCID{}, false, 0, ranks)
	if err != nil {
		ib.Close()
		return nil, fmt.Errorf("incastbench: %w", err)
	}
	ib.rch = rch
	for s := 1; s <= senders; s++ {
		e := NewEngine([]btl.Module{btlsm.New(seg, 0, s, nodeOf, 0)}, cfg)
		ib.senders = append(ib.senders, e)
		sch, err := e.AddChannel(0, ExCID{}, false, s, ranks)
		if err != nil {
			ib.Close()
			return nil, fmt.Errorf("incastbench: %w", err)
		}
		ib.schans = append(ib.schans, sch)
	}
	return ib, nil
}

// Run transfers total 8-byte eager messages split across the senders. Per
// window round the receiver posts window receives per sender, interleaved
// by source, grants each sender a credit, and waits; every arrival lands in
// the middle of a deep multi-source posted queue.
func (ib *incastBench) Run(total int) error {
	s := len(ib.senders)
	counts := make([]int, s)
	for i := range counts {
		counts[i] = total / s
		if i < total%s {
			counts[i]++
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, s+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rem := append([]int(nil), counts...)
		bufs := make([]byte, 8*s*ib.window)
		credit := []byte{1}
		w := make([]int, s)
		reqs := make([]*Request, 0, s*ib.window)
		for {
			maxw := 0
			for i := range w {
				w[i] = ib.window
				if w[i] > rem[i] {
					w[i] = rem[i]
				}
				rem[i] -= w[i]
				if w[i] > maxw {
					maxw = w[i]
				}
			}
			if maxw == 0 {
				return
			}
			reqs = reqs[:0]
			for round := 0; round < maxw; round++ {
				for i := 0; i < s; i++ {
					if round < w[i] {
						slot := 8 * (round*s + i)
						reqs = append(reqs, ib.rch.Irecv(i+1, 1, bufs[slot:slot+8]))
					}
				}
			}
			for i := 0; i < s; i++ {
				if w[i] > 0 {
					if err := ib.rch.Send(i+1, 2, credit); err != nil {
						errs <- err
						return
					}
				}
			}
			for _, r := range reqs {
				if _, err := r.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for i := 0; i < s; i++ {
		if counts[i] == 0 {
			continue
		}
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			ch := ib.schans[i]
			buf := make([]byte, 8)
			credit := []byte{0}
			for n > 0 {
				w := ib.window
				if w > n {
					w = n
				}
				if _, err := ch.Recv(0, 2, credit); err != nil {
					errs <- err
					return
				}
				for j := 0; j < w; j++ {
					if _, err := ch.Isend(0, 1, buf).Wait(); err != nil {
						errs <- err
						return
					}
				}
				n -= w
			}
		}(i, counts[i])
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// Close tears every engine down.
func (ib *incastBench) Close() {
	if ib.receiver != nil {
		ib.receiver.Close()
	}
	for _, e := range ib.senders {
		e.Close()
	}
}
