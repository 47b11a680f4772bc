package pml

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/btl"
)

// TestConcurrentProbeWildcardFailPeer hammers the fine-grained locking from
// every side at once, on several channels of the same engine: wildcard
// receivers and senders stream messages, Iprobe spins, Probe blocks for a
// sentinel, and FailPeer fires concurrently against a rank with posted
// receives naming it. Run under -race by `make check`, it asserts the
// per-channel lock / registry lock / pending-map lock split has no data
// races and that every request completes.
func TestConcurrentProbeWildcardFailPeer(t *testing.T) {
	const (
		nchan = 3
		msgs  = 50
	)
	tn := newTestNet(t, 4, Config{})
	// Engine 3 is the receiver; ranks 0 and 2 send, rank 1 "dies".
	chans := make([][]*Channel, nchan)
	for c := 0; c < nchan; c++ {
		chans[c] = tn.worldChannels(t, uint16(c))
	}

	var wg sync.WaitGroup
	for c := 0; c < nchan; c++ {
		c := c
		// Senders: ranks 0 and 2 each send msgs eager messages, then rank 0
		// sends the sentinel the Probe goroutine waits for.
		for _, src := range []int{0, 2} {
			src := src
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := []byte{byte(c), byte(src)}
				for i := 0; i < msgs; i++ {
					if err := chans[c][src].Send(3, 1, buf); err != nil {
						t.Errorf("chan %d send from %d: %v", c, src, err)
						return
					}
				}
				if src == 0 {
					if err := chans[c][0].Send(3, 9, buf); err != nil {
						t.Errorf("chan %d sentinel send: %v", c, err)
					}
				}
			}()
		}
		// Wildcard receiver: drains both senders' streams.
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < 2*msgs; i++ {
				st, err := chans[c][3].Recv(AnySource, 1, buf)
				if err != nil {
					t.Errorf("chan %d wildcard recv: %v", c, err)
					return
				}
				if st.Source != 0 && st.Source != 2 {
					t.Errorf("chan %d recv from unexpected source %d", c, st.Source)
					return
				}
			}
		}()
		// Specific receive naming the dying rank: must fail with
		// ErrPeerFailed (rank 1 never sends on this tag).
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			_, err := chans[c][3].Recv(1, 5, buf)
			if !errors.Is(err, ErrPeerFailed) {
				t.Errorf("chan %d recv from failed rank: got %v, want ErrPeerFailed", c, err)
			}
		}()
		// Blocking Probe for the sentinel, plus an Iprobe spinner.
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := chans[c][3].Probe(0, 9)
			if err != nil || st.Tag != 9 {
				t.Errorf("chan %d probe: %+v %v", c, st, err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				chans[c][3].Iprobe(AnySource, AnyTag)
			}
		}()
	}
	// The failure notification races with everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tn.engines[3].FailPeer(1)
	}()
	wg.Wait()

	// Drain the sentinels so the engines close with empty queues.
	for c := 0; c < nchan; c++ {
		buf := make([]byte, 8)
		if _, err := chans[c][3].Recv(0, 9, buf); err != nil {
			t.Fatalf("chan %d drain sentinel: %v", c, err)
		}
	}
}

// TestRegistryChurnUnderTraffic races the copy-on-write channel registries
// against the packet path: while senders stream on two live channels (one
// consensus-CID, one exCID) and receivers drain them with pooled blocking
// receives, a churn goroutine keeps registering and removing channels on
// fresh CIDs and exCIDs, sending on each before the receiving engine has
// registered it so the packet is orphaned and then replayed by AddChannel.
// Under -race this checks that snapshot publication, orphan buffering and
// replay, and request recycling are free of data races, and that no live
// message is lost or misdelivered.
func TestRegistryChurnUnderTraffic(t *testing.T) {
	const (
		msgs  = 300
		churn = 40
	)
	tn := newTestNet(t, 2, Config{})
	world := tn.worldChannels(t, 0)
	exch := tn.exChannels(t, ExCID{PGCID: 1}, 1) // CIDs 1 and 2

	var wg sync.WaitGroup
	for _, chs := range [][]*Channel{world, exch} {
		chs := chs
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := chs[0].Send(1, 3, []byte{byte(i)}); err != nil {
					t.Errorf("live send %d on CID %d: %v", i, chs[0].LocalCID(), err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 1)
			for i := 0; i < msgs; i++ {
				if _, err := chs[1].Recv(0, 3, buf); err != nil {
					t.Errorf("live recv %d on CID %d: %v", i, chs[1].LocalCID(), err)
					return
				}
				if buf[0] != byte(i) {
					t.Errorf("live recv on CID %d: got message %d, want %d", chs[1].LocalCID(), buf[0], byte(i))
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		ranks := []int{0, 1}
		for i := 0; i < churn; i++ {
			cid := uint16(10 + i)
			useEx := i%2 == 1
			var ex ExCID
			if useEx {
				ex = ExCID{PGCID: 100 + uint64(i)}
			}
			// The sender registers and fires first: the packet is an
			// orphan at engine 1 until its AddChannel replays it.
			ch0, err := tn.engines[0].AddChannel(cid, ex, useEx, 0, ranks)
			if err != nil {
				t.Errorf("churn %d: AddChannel on engine 0: %v", i, err)
				return
			}
			if err := ch0.Send(1, 4, []byte{byte(i)}); err != nil {
				t.Errorf("churn %d: send: %v", i, err)
				return
			}
			ch1, err := tn.engines[1].AddChannel(cid, ex, useEx, 1, ranks)
			if err != nil {
				t.Errorf("churn %d: AddChannel on engine 1: %v", i, err)
				return
			}
			buf := make([]byte, 1)
			if _, err := ch1.Recv(0, 4, buf); err != nil || buf[0] != byte(i) {
				t.Errorf("churn %d: replayed recv got %d, %v", i, buf[0], err)
				return
			}
			tn.engines[0].RemoveChannel(ch0)
			tn.engines[1].RemoveChannel(ch1)
		}
	}()
	wg.Wait()

	for i, e := range tn.engines {
		for cid, ch := range e.channels() {
			if ch != nil && cid > 2 {
				t.Errorf("engine %d: churned CID %d still registered", i, cid)
			}
		}
	}
}

// incarnationBTL resolves every peer to an endpoint stamped with the
// module's current incarnation, standing in for a modex that hands out a
// respawned process's fresh address.
type incarnationBTL struct{ inc atomic.Int64 }

type incarnationEP struct{ inc int64 }

func (*incarnationEP) Send([]byte) error { return nil }

func (*incarnationBTL) Name() string             { return "inc" }
func (*incarnationBTL) EagerLimit() int          { return 0 }
func (*incarnationBTL) Activate(btl.DeliverFunc) {}
func (*incarnationBTL) Stats() btl.Stats         { return btl.Stats{} }
func (*incarnationBTL) Close()                   {}
func (m *incarnationBTL) AddProc(int) (btl.Endpoint, error) {
	inc := m.inc.Load()
	runtime.Gosched() // widen the window between resolving and caching
	return &incarnationEP{inc: inc}, nil
}

// TestRevivePeerRacesRouteTo races RevivePeer against first-contact route
// resolution. Resolvers spin on routeTo for the peer while the main
// goroutine repeatedly moves the peer to a new incarnation and revives it.
// A resolution that began before a revive must not be cached over it:
// every routeTo that starts after RevivePeer returns has to see the new
// incarnation.
func TestRevivePeerRacesRouteTo(t *testing.T) {
	mod := &incarnationBTL{}
	e := NewEngine([]btl.Module{mod}, Config{})
	defer e.Close()
	const peer, rounds = 5, 300

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.routeTo(peer); err != nil {
					t.Errorf("routeTo: %v", err)
					return
				}
			}
		}()
	}
	for k := int64(1); k <= rounds; k++ {
		mod.inc.Store(k)
		e.RevivePeer(peer)
		rt, err := e.routeTo(peer)
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.ep.(*incarnationEP).inc; got != k {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: routeTo after RevivePeer returned incarnation %d", k, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRequestCompletionWakesEveryWaiter parks two goroutines in Wait on one
// request and takes its Done channel before completion: a single complete
// must release all three, with the same status.
func TestRequestCompletionWakesEveryWaiter(t *testing.T) {
	req := newRequest()
	done := req.Done()
	want := Status{Source: 3, Tag: 7, Count: 11}

	var started, wg sync.WaitGroup
	got := make([]Status, 2)
	for i := range got {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			st, err := req.Wait()
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			got[i] = st
		}(i)
	}
	started.Wait()
	time.Sleep(5 * time.Millisecond) // let both waiters park in Wait
	select {
	case <-done:
		t.Fatal("Done channel closed before completion")
	default:
	}
	if ok, _, _ := req.Test(); ok {
		t.Fatal("Test reports completion before complete")
	}

	req.complete(want, nil)
	wg.Wait()
	for i, st := range got {
		if st != want {
			t.Errorf("waiter %d: status %+v, want %+v", i, st, want)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Done channel taken before completion was not closed")
	}
	if req.Done() != closedChan {
		t.Error("Done on a completed request should return the shared closed channel")
	}
	if ok, st, err := req.Test(); !ok || st != want || err != nil {
		t.Errorf("Test after completion: %v %+v %v", ok, st, err)
	}
}
