// Package sm is the shared-memory BTL: an intra-node fast path that hands
// packets to node-local peers through the node's simnet.Segment, bypassing
// the fabric's latency and serialization model entirely — the simulation
// analogue of Open MPI's sm BTL copying through a mapped segment instead of
// touching the NIC. Because the copy cost is negligible, sm advertises a
// much larger eager limit than the fabric path, so mid-sized intra-node
// messages skip the rendezvous round trip too.
package sm

import (
	"sync/atomic"

	"gompi/internal/btl"
	"gompi/internal/simnet"
)

// DefaultEagerLimit is sm's eager/rendezvous switch point: shared-memory
// copies are cheap, so messages up to 64 KiB go eagerly.
const DefaultEagerLimit = 64 << 10

// Module is the shared-memory transport for one process.
type Module struct {
	seg    *simnet.Segment
	node   int
	rank   int
	nodeOf func(globalRank int) int
	eager  int

	msgs  atomic.Uint64
	bytes atomic.Uint64
}

// New creates the module for a process with the given global rank on node.
// seg is the node's shared segment; nodeOf maps a global rank to the node
// hosting it. Locality comes from the launcher's static placement map (the
// PMIX_LOCALITY analogue), never from the per-cycle modex, so a peer stays
// sm-reachable across its finalize/re-initialize cycles. eagerLimit <= 0
// selects DefaultEagerLimit.
func New(seg *simnet.Segment, node, rank int, nodeOf func(int) int, eagerLimit int) *Module {
	if eagerLimit <= 0 {
		eagerLimit = DefaultEagerLimit
	}
	return &Module{seg: seg, node: node, rank: rank, nodeOf: nodeOf, eager: eagerLimit}
}

// Name implements btl.Module.
func (m *Module) Name() string { return "sm" }

// EagerLimit implements btl.Module.
func (m *Module) EagerLimit() int { return m.eager }

// Activate registers this process's mailbox in the node segment. Inbound
// packets are delivered inline on the sender's goroutine.
func (m *Module) Activate(deliver btl.DeliverFunc) {
	m.seg.Register(m.rank, simnet.DeliverFunc(deliver))
}

// AddProc accepts only node-local peers; anything else is ErrUnreachable so
// the PML falls through to the fabric transport.
func (m *Module) AddProc(globalRank int) (btl.Endpoint, error) {
	if m.nodeOf(globalRank) != m.node {
		return nil, btl.ErrUnreachable
	}
	return &endpoint{mod: m, peer: globalRank}, nil
}

// Stats implements btl.Module.
func (m *Module) Stats() btl.Stats {
	return btl.Stats{Msgs: m.msgs.Load(), Bytes: m.bytes.Load()}
}

// Close withdraws the mailbox. Delivery is inline, so once Deregister
// returns no new upcall can start; a handoff already past Lookup may still
// be running, which the PML tolerates by dropping packets after close.
func (m *Module) Close() {
	m.seg.Deregister(m.rank)
}

type endpoint struct {
	mod  *Module
	peer int
}

// Send looks the peer's mailbox up on every call (not at AddProc time) so a
// peer that finalized and re-initialized is picked up, and one that closed
// reports ErrClosed exactly like a closed fabric endpoint would.
//
//gompilint:noalloc
func (e *endpoint) Send(pkt []byte) error {
	deliver, ok := e.mod.seg.Lookup(e.peer)
	if !ok {
		return btl.ErrClosed
	}
	// Stats are counted before the inline delivery: deliver transfers the
	// packet to the receiving engine, which may recycle it into the PML
	// buffer arena before returning here.
	e.mod.msgs.Add(1)
	e.mod.bytes.Add(uint64(len(pkt)))
	deliver(pkt)
	return nil
}
