package sm

import (
	"errors"
	"testing"

	"gompi/internal/btl"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// twoNodes builds a 2-node × 2-slot cluster: ranks 0,1 on node 0 and
// ranks 2,3 on node 1, with a static placement map.
func twoNodes(t *testing.T) (*simnet.Fabric, func(int) int) {
	t.Helper()
	f := simnet.NewFabric(topo.New(topo.Loopback(2), 2))
	return f, func(r int) int { return r / 2 }
}

func TestInlineDelivery(t *testing.T) {
	f, nodeOf := twoNodes(t)
	m0 := New(f.Segment(0), 0, 0, nodeOf, 0)
	m1 := New(f.Segment(0), 0, 1, nodeOf, 0)
	var got []byte
	m0.Activate(func([]byte) {})
	m1.Activate(func(pkt []byte) { got = pkt })
	defer m0.Close()
	defer m1.Close()

	ep, err := m0.AddProc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send([]byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	// sm delivery is inline on the sender's goroutine: visible immediately.
	if len(got) != 2 {
		t.Fatalf("got = %v", got)
	}
	st := m0.Stats()
	if st.Msgs != 1 || st.Bytes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOffNodeUnreachable(t *testing.T) {
	f, nodeOf := twoNodes(t)
	m0 := New(f.Segment(0), 0, 0, nodeOf, 0)
	m0.Activate(func([]byte) {})
	defer m0.Close()
	if _, err := m0.AddProc(2); !errors.Is(err, btl.ErrUnreachable) {
		t.Fatalf("off-node AddProc err = %v, want ErrUnreachable", err)
	}
	if _, err := m0.AddProc(1); err != nil {
		t.Fatalf("on-node AddProc err = %v", err)
	}
}

func TestSendAfterPeerClose(t *testing.T) {
	f, nodeOf := twoNodes(t)
	m0 := New(f.Segment(0), 0, 0, nodeOf, 0)
	m1 := New(f.Segment(0), 0, 1, nodeOf, 0)
	m0.Activate(func([]byte) {})
	m1.Activate(func([]byte) {})
	defer m0.Close()

	ep, err := m0.AddProc(1)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	if err := ep.Send([]byte{1}); !errors.Is(err, btl.ErrClosed) {
		t.Fatalf("send after peer close err = %v, want ErrClosed", err)
	}
}

func TestEagerLimitLargerThanNet(t *testing.T) {
	f, nodeOf := twoNodes(t)
	m := New(f.Segment(0), 0, 0, nodeOf, 0)
	if m.EagerLimit() != DefaultEagerLimit || m.Name() != "sm" {
		t.Fatalf("EagerLimit=%d Name=%q", m.EagerLimit(), m.Name())
	}
	if m.EagerLimit() <= 4096 {
		t.Fatal("sm eager limit should exceed the fabric default")
	}
	var _ btl.Module = m
}

// TestSendReachesReregisteredPeer pins the per-send lookup: an endpoint
// resolved before the peer finalized must reach the peer's next
// incarnation as soon as it re-registers, with no new AddProc.
func TestSendReachesReregisteredPeer(t *testing.T) {
	f, nodeOf := twoNodes(t)
	m0 := New(f.Segment(0), 0, 0, nodeOf, 0)
	m0.Activate(func([]byte) {})
	defer m0.Close()
	old := New(f.Segment(0), 0, 1, nodeOf, 0)
	old.Activate(func([]byte) { t.Error("packet delivered to the closed incarnation") })

	ep, err := m0.AddProc(1)
	if err != nil {
		t.Fatal(err)
	}
	old.Close()
	if err := ep.Send([]byte{1}); !errors.Is(err, btl.ErrClosed) {
		t.Fatalf("send to a finalized peer err = %v, want ErrClosed", err)
	}

	var got []byte
	fresh := New(f.Segment(0), 0, 1, nodeOf, 0)
	fresh.Activate(func(pkt []byte) { got = pkt })
	defer fresh.Close()
	if err := ep.Send([]byte{2}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("re-registered peer got %v, want [2]", got)
	}
}
