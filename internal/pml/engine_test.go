package pml

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gompi/internal/btl"
	btlnet "gompi/internal/btl/net"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// testNet is a set of engines wired over a loopback fabric via the net BTL,
// keeping the protocol tests on the same fabric path they exercised before
// the PML/BTL split.
type testNet struct {
	engines []*Engine
}

func newTestNet(t *testing.T, n int, cfg Config) *testNet {
	t.Helper()
	return newWrappedTestNet(t, n, cfg, nil)
}

// newWrappedTestNet is newTestNet with a hook that may wrap engine i's
// transport module before the engine activates it (nil wraps nothing).
func newWrappedTestNet(t *testing.T, n int, cfg Config, wrap func(i int, m btl.Module) btl.Module) *testNet {
	t.Helper()
	fabric := simnet.NewFabric(topo.New(topo.Loopback(n), 1))
	eps := make([]*simnet.Endpoint, n)
	for i := range eps {
		eps[i] = fabric.NewEndpoint(0)
	}
	resolve := func(rank int) (simnet.Addr, error) {
		if rank < 0 || rank >= n {
			return simnet.Addr{}, fmt.Errorf("unknown rank %d", rank)
		}
		return eps[rank].Addr(), nil
	}
	tn := &testNet{}
	for i := 0; i < n; i++ {
		var mod btl.Module = btlnet.New(eps[i], resolve, 0)
		if wrap != nil {
			mod = wrap(i, mod)
		}
		tn.engines = append(tn.engines, NewEngine([]btl.Module{mod}, cfg))
	}
	t.Cleanup(func() {
		for _, e := range tn.engines {
			e.Close()
		}
	})
	return tn
}

// worldChannels registers a consensus-style "world" channel (same local CID
// everywhere) on every engine.
func (tn *testNet) worldChannels(t *testing.T, cid uint16) []*Channel {
	t.Helper()
	ranks := make([]int, len(tn.engines))
	for i := range ranks {
		ranks[i] = i
	}
	chans := make([]*Channel, len(tn.engines))
	for i, e := range tn.engines {
		ch, err := e.AddChannel(cid, ExCID{}, false, i, ranks)
		if err != nil {
			t.Fatalf("AddChannel engine %d: %v", i, err)
		}
		chans[i] = ch
	}
	return chans
}

// exChannels registers an exCID channel with *different* local CIDs per
// engine (rank i uses CID base+i), exercising the handshake.
func (tn *testNet) exChannels(t *testing.T, ex ExCID, base uint16) []*Channel {
	t.Helper()
	ranks := make([]int, len(tn.engines))
	for i := range ranks {
		ranks[i] = i
	}
	chans := make([]*Channel, len(tn.engines))
	for i, e := range tn.engines {
		ch, err := e.AddChannel(base+uint16(i), ex, true, i, ranks)
		if err != nil {
			t.Fatalf("AddChannel engine %d: %v", i, err)
		}
		chans[i] = ch
	}
	return chans
}

func TestEagerSendRecvPosted(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	buf := make([]byte, 5)
	req := chs[1].Irecv(0, 7, buf)
	if err := chs[0].Send(1, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	st, err := req.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != 0 || st.Tag != 7 || st.Count != 5 {
		t.Fatalf("status = %+v", st)
	}
	if string(buf) != "hello" {
		t.Fatalf("buf = %q", buf)
	}
}

func TestEagerSendBeforeRecvUnexpected(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	if err := chs[0].Send(1, 3, []byte("late")); err != nil {
		t.Fatal(err)
	}
	// Give the message time to land in the unexpected queue.
	time.Sleep(10 * time.Millisecond)
	buf := make([]byte, 4)
	st, err := chs[1].Recv(0, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 4 || string(buf) != "late" {
		t.Fatalf("st=%+v buf=%q", st, buf)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	tn := newTestNet(t, 3, Config{})
	chs := tn.worldChannels(t, 0)
	if err := chs[0].Send(2, 10, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := chs[1].Send(2, 20, []byte("b")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	// Specific tag 20 must skip the tag-10 message.
	buf := make([]byte, 1)
	st, err := chs[2].Recv(AnySource, 20, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != 1 || buf[0] != 'b' {
		t.Fatalf("st=%+v buf=%q", st, buf)
	}
	// AnySource + AnyTag picks up the remaining one.
	st, err = chs[2].Recv(AnySource, AnyTag, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != 0 || st.Tag != 10 || buf[0] != 'a' {
		t.Fatalf("st=%+v buf=%q", st, buf)
	}
}

func TestAnyTagSkipsInternalTags(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	if err := chs[0].Send(1, -5, []byte("internal")); err != nil {
		t.Fatal(err)
	}
	if err := chs[0].Send(1, 1, []byte("app")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	buf := make([]byte, 8)
	st, err := chs[1].Recv(AnySource, AnyTag, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tag != 1 {
		t.Fatalf("AnyTag matched internal tag: %+v", st)
	}
	st, err = chs[1].Recv(0, -5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tag != -5 || string(buf[:st.Count]) != "internal" {
		t.Fatalf("st=%+v", st)
	}
}

func TestOrderingSameSourceAndTag(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	const n = 50
	for i := 0; i < n; i++ {
		if err := chs[0].Send(1, 4, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1)
	for i := 0; i < n; i++ {
		if _, err := chs[1].Recv(0, 4, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, buf[0])
		}
	}
}

func TestTruncation(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	small := make([]byte, 2)
	req := chs[1].Irecv(0, 0, small)
	if err := chs[0].Send(1, 0, []byte("too long")); err != nil {
		t.Fatal(err)
	}
	st, err := req.Wait()
	if !errors.Is(err, ErrTruncate) {
		t.Fatalf("err = %v, want ErrTruncate", err)
	}
	if st.Count != 2 || string(small) != "to" {
		t.Fatalf("st=%+v small=%q", st, small)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	tn := newTestNet(t, 2, Config{EagerLimit: 64})
	chs := tn.worldChannels(t, 0)
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	buf := make([]byte, len(payload))
	req := chs[1].Irecv(0, 9, buf)
	sreq := chs[0].Isend(1, 9, payload)
	if _, err := sreq.Wait(); err != nil {
		t.Fatal(err)
	}
	st, err := req.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatalf("rendezvous corrupted data (count=%d)", st.Count)
	}
	if s := tn.engines[0].Stats(); s.Rendezvous != 1 {
		t.Fatalf("Rendezvous = %d, want 1", s.Rendezvous)
	}
}

func TestRendezvousUnexpectedRTS(t *testing.T) {
	tn := newTestNet(t, 2, Config{EagerLimit: 16})
	chs := tn.worldChannels(t, 0)
	payload := bytes.Repeat([]byte("x"), 100)
	sreq := chs[0].Isend(1, 2, payload)
	time.Sleep(10 * time.Millisecond) // RTS lands unexpected
	buf := make([]byte, 100)
	st, err := chs[1].Recv(AnySource, AnyTag, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != 0 || st.Tag != 2 || st.Count != 100 {
		t.Fatalf("st=%+v", st)
	}
	if _, err := sreq.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("data corrupted")
	}
}

func TestExCIDHandshake(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	ex := ExCID{PGCID: 42, Sub: 0x0700000000000000}
	chs := tn.exChannels(t, ex, 10) // rank 0 -> CID 10, rank 1 -> CID 11
	buf := make([]byte, 3)

	// First message travels with the extended header.
	req := chs[1].Irecv(0, 1, buf)
	if err := chs[0].Send(1, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	s0 := tn.engines[0].Stats()
	if s0.ExtSent != 1 || s0.FastSent != 0 {
		t.Fatalf("first message stats = %+v, want one ext", s0)
	}

	// Wait for the ACK to flip the fast path on.
	deadline := time.Now().Add(2 * time.Second)
	for !chs[0].PeerConnected(1) {
		if time.Now().After(deadline) {
			t.Fatal("handshake never completed")
		}
		time.Sleep(time.Millisecond)
	}
	req = chs[1].Irecv(0, 1, buf)
	if err := chs[0].Send(1, 1, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	s0 = tn.engines[0].Stats()
	if s0.ExtSent != 1 || s0.FastSent != 1 {
		t.Fatalf("second message stats = %+v, want one ext + one fast", s0)
	}
	if s1 := tn.engines[1].Stats(); s1.AcksSent != 1 {
		t.Fatalf("receiver acks = %+v, want 1", s1)
	}
}

// ackGate wraps a transport module and parks every inbound exCID handshake
// ACK until release, so a test decides when the sender learns the
// receiver's local CID instead of racing the receiver's progress.
type ackGate struct {
	btl.Module
	deliver btl.DeliverFunc
	parked  chan struct{} // one token per parked ACK; roomy so the BTL's progress goroutine never blocks on it

	mu   sync.Mutex
	open bool
	held [][]byte
}

func newAckGate(m btl.Module) *ackGate {
	return &ackGate{Module: m, parked: make(chan struct{}, 16)}
}

func (g *ackGate) Activate(deliver btl.DeliverFunc) {
	g.deliver = deliver
	g.Module.Activate(func(pkt []byte) {
		if env, err := decodeEnvelope(pkt); err == nil && env.hdr.typ == hdrCIDAck {
			g.mu.Lock()
			if !g.open {
				g.held = append(g.held, pkt)
				g.mu.Unlock()
				g.parked <- struct{}{}
				return
			}
			g.mu.Unlock()
		}
		deliver(pkt)
	})
}

// release opens the gate and delivers the parked ACKs on the caller's
// goroutine, so they have been applied when release returns.
func (g *ackGate) release() {
	g.mu.Lock()
	g.open = true
	held := g.held
	g.held = nil
	g.mu.Unlock()
	for _, pkt := range held {
		g.deliver(pkt)
	}
}

func TestExCIDWindowBeforeAck(t *testing.T) {
	// The Fig. 5c mechanism: a window of sends issued back-to-back before
	// the receiver's ACK arrives all carry extended headers. Engine 0
	// holds the ACK back until the whole window has left, so the window
	// never races the handshake.
	var gate *ackGate
	tn := newWrappedTestNet(t, 2, Config{}, func(i int, m btl.Module) btl.Module {
		if i != 0 {
			return m
		}
		gate = newAckGate(m)
		return gate
	})
	ex := ExCID{PGCID: 7}
	chs := tn.exChannels(t, ex, 20)
	const window = 16
	reqs := make([]*Request, window)
	bufs := make([][]byte, window)
	for i := range reqs {
		bufs[i] = make([]byte, 1)
		reqs[i] = chs[1].Irecv(0, 5, bufs[i])
	}
	for i := 0; i < window; i++ {
		if err := chs[0].Send(1, 5, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range reqs {
		if _, err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		if bufs[i][0] != byte(i) {
			t.Fatalf("message %d out of order: %d", i, bufs[i][0])
		}
	}
	s0 := tn.engines[0].Stats()
	if s0.ExtSent != window {
		t.Fatalf("ExtSent = %d, want %d (every send of the window precedes the ACK)", s0.ExtSent, window)
	}
	if s1 := tn.engines[1].Stats(); s1.AcksSent != 1 {
		t.Fatalf("AcksSent = %d, want exactly 1 despite %d ext messages", s1.AcksSent, s0.ExtSent)
	}

	// Once the ACK lands, the next send switches to the 14-byte header.
	select {
	case <-gate.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("receiver's ACK never reached engine 0")
	}
	gate.release()
	r := chs[1].Irecv(0, 5, make([]byte, 1))
	if err := chs[0].Send(1, 5, []byte{window}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if s0 := tn.engines[0].Stats(); s0.AcksRecved != 1 || s0.ExtSent != window || s0.FastSent != 1 {
		t.Fatalf("after the ACK: AcksRecved=%d ExtSent=%d FastSent=%d, want 1, %d, 1", s0.AcksRecved, s0.ExtSent, s0.FastSent, window)
	}
}

func TestExCIDOrphanReplay(t *testing.T) {
	// Sender finishes communicator creation first and fires; the receiver
	// registers the channel afterwards and must still deliver.
	tn := newTestNet(t, 2, Config{})
	ex := ExCID{PGCID: 99}
	ranks := []int{0, 1}
	ch0, err := tn.engines[0].AddChannel(30, ex, true, 0, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch0.Send(1, 8, []byte("early")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // packet is orphaned at engine 1
	ch1, err := tn.engines[1].AddChannel(31, ex, true, 1, ranks)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	st, err := ch1.Recv(0, 8, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 5 || string(buf) != "early" {
		t.Fatalf("st=%+v buf=%q", st, buf)
	}
}

func TestFastPathOrphanReplay(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	ranks := []int{0, 1}
	ch0, err := tn.engines[0].AddChannel(3, ExCID{}, false, 0, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch0.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	ch1, err := tn.engines[1].AddChannel(3, ExCID{}, false, 1, ranks)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := ch1.Recv(0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'x' {
		t.Fatalf("buf = %q", buf)
	}
}

func TestChannelIsolation(t *testing.T) {
	// Messages on one communicator must never match receives on another.
	tn := newTestNet(t, 2, Config{})
	a := tn.worldChannels(t, 0)
	b := tn.worldChannels(t, 1)
	if err := a[0].Send(1, 5, []byte("A")); err != nil {
		t.Fatal(err)
	}
	got := make(chan byte, 1)
	go func() {
		buf := make([]byte, 1)
		if _, err := b[1].Recv(0, 5, buf); err == nil {
			got <- buf[0]
		}
	}()
	select {
	case v := <-got:
		t.Fatalf("receive on channel B matched %q from channel A", v)
	case <-time.After(50 * time.Millisecond):
		// Expected: channel B saw nothing.
	}
	buf := make([]byte, 1)
	st, err := a[1].Recv(0, 5, buf)
	if err != nil || st.Count != 1 || buf[0] != 'A' {
		t.Fatalf("st=%+v err=%v", st, err)
	}
	if err := b[0].Send(1, 5, []byte("B")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 'B' {
			t.Fatalf("channel B received %q, want B", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("channel B never received its own message")
	}
}

func TestProbeAndIprobe(t *testing.T) {
	tn := newTestNet(t, 2, Config{EagerLimit: 8})
	chs := tn.worldChannels(t, 0)
	if _, ok := chs[1].Iprobe(AnySource, AnyTag); ok {
		t.Fatal("Iprobe matched on empty queue")
	}
	if err := chs[0].Send(1, 3, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	st, err := chs[1].Probe(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 2 || st.Tag != 3 {
		t.Fatalf("Probe st=%+v", st)
	}
	// Probing a rendezvous message reports its full length.
	big := make([]byte, 100)
	sreq := chs[0].Isend(1, 4, big)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st, ok := chs[1].Iprobe(0, 4); ok {
			if st.Count != 100 {
				t.Fatalf("rndv probe count = %d, want 100", st.Count)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Iprobe never saw the RTS")
		}
		time.Sleep(time.Millisecond)
	}
	// Drain both.
	buf := make([]byte, 100)
	if _, err := chs[1].Recv(0, 3, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := chs[1].Recv(0, 4, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := sreq.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArguments(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	if _, err := chs[0].Isend(5, 0, nil).Wait(); err == nil {
		t.Fatal("send to out-of-range dest should fail")
	}
	if _, err := chs[0].Irecv(5, 0, nil).Wait(); err == nil {
		t.Fatal("recv from out-of-range src should fail")
	}
}

func TestDuplicateCIDRejected(t *testing.T) {
	tn := newTestNet(t, 1, Config{})
	if _, err := tn.engines[0].AddChannel(0, ExCID{}, false, 0, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.engines[0].AddChannel(0, ExCID{}, false, 0, []int{0}); err == nil {
		t.Fatal("duplicate local CID accepted")
	}
	ex := ExCID{PGCID: 1}
	if _, err := tn.engines[0].AddChannel(1, ex, true, 0, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.engines[0].AddChannel(2, ex, true, 0, []int{0}); err == nil {
		t.Fatal("duplicate exCID accepted")
	}
}

func TestAllocCID(t *testing.T) {
	tn := newTestNet(t, 1, Config{})
	e := tn.engines[0]
	if got := e.AllocCID(0); got != 0 {
		t.Fatalf("AllocCID = %d, want 0", got)
	}
	if _, err := e.AddChannel(0, ExCID{}, false, 0, []int{0}); err != nil {
		t.Fatal(err)
	}
	if got := e.AllocCID(0); got != 1 {
		t.Fatalf("AllocCID = %d, want 1", got)
	}
	if got := e.AllocCID(5); got != 5 {
		t.Fatalf("AllocCID(5) = %d, want 5", got)
	}
}

func TestCloseFailsPendingRequests(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	req := chs[1].Irecv(0, 0, make([]byte, 1))
	tn.engines[1].Close()
	if _, err := req.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestRemoveChannelFailsPosted(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	req := chs[1].Irecv(0, 0, make([]byte, 1))
	tn.engines[1].RemoveChannel(chs[1])
	if _, err := req.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestRequestTestAndDone(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	req := chs[1].Irecv(0, 0, make([]byte, 1))
	if ok, _, _ := req.Test(); ok {
		t.Fatal("Test reported completion before any send")
	}
	if err := chs[0].Send(1, 0, []byte("z")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-req.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done channel never signaled")
	}
	ok, st, err := req.Test()
	if !ok || err != nil || st.Count != 1 {
		t.Fatalf("Test = %v,%+v,%v", ok, st, err)
	}
}

// TestMatchingAgainstOracle drives random send/recv sequences and checks
// the engine agrees with a simple reference model on which sends match
// which receives.
func TestMatchingAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tn := newTestNet(t, 2, Config{})
		chs := tn.worldChannels(t, 0)
		const nmsg = 20
		tags := make([]int, nmsg)
		for i := range tags {
			tags[i] = rng.Intn(3)
			if err := chs[0].Send(1, tags[i], []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
		// Reference: for a requested tag, the first unconsumed message with
		// that tag (in send order) must be returned.
		consumed := make([]bool, nmsg)
		for k := 0; k < nmsg; k++ {
			want := rng.Intn(3)
			expect := -1
			for i := 0; i < nmsg; i++ {
				if !consumed[i] && tags[i] == want {
					expect = i
					break
				}
			}
			if expect == -1 {
				continue
			}
			buf := make([]byte, 1)
			st, err := chs[1].Recv(0, want, buf)
			if err != nil {
				t.Fatal(err)
			}
			if int(buf[0]) != expect {
				t.Fatalf("trial %d: recv tag %d matched message %d, oracle says %d", trial, want, buf[0], expect)
			}
			if st.Tag != want {
				t.Fatalf("status tag %d != %d", st.Tag, want)
			}
			consumed[expect] = true
		}
		for _, e := range tn.engines {
			e.Close()
		}
	}
}

func TestConcurrentSendersToOneReceiver(t *testing.T) {
	const n = 8
	tn := newTestNet(t, n, Config{})
	chs := tn.worldChannels(t, 0)
	const per = 25
	var wg sync.WaitGroup
	for s := 0; s < n-1; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := chs[s].Send(n-1, s, []byte{byte(i)}); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	next := make([]int, n-1)
	buf := make([]byte, 1)
	for k := 0; k < (n-1)*per; k++ {
		st, err := chs[n-1].Recv(AnySource, AnyTag, buf)
		if err != nil {
			t.Fatal(err)
		}
		if int(buf[0]) != next[st.Source] {
			t.Fatalf("source %d: got seq %d, want %d", st.Source, buf[0], next[st.Source])
		}
		next[st.Source]++
	}
	wg.Wait()
}
