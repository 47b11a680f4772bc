package pml

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gompi/internal/btl"
	"gompi/internal/opal"
)

// DefaultEagerLimit is the message size above which the rendezvous protocol
// is used instead of eager delivery when neither the Config nor the selected
// transport specifies a limit.
const DefaultEagerLimit = 4096

// Config tunes an Engine.
type Config struct {
	// EagerLimit is the eager/rendezvous switch point in bytes. When set
	// (> 0) it overrides every transport's own preference, which keeps
	// protocol tests deterministic; zero defers to the per-BTL limit (sm
	// advertises a much larger one than net).
	EagerLimit int
	// Trace, when non-nil, receives "btl" layer events for route selection:
	// which module carries each peer, and which modules declined it.
	Trace *opal.Trace
}

// Stats counts messages by header kind, used by tests and by the Fig. 5c
// analysis of how many messages travelled with extended headers.
type Stats struct {
	FastSent   uint64 // messages sent with the 14-byte header only
	ExtSent    uint64 // messages sent with the extended header
	AcksSent   uint64
	AcksRecved uint64
	Rendezvous uint64 // rendezvous transfers initiated
	// PostedHits counts inbound messages that matched an already-posted
	// receive; UnexpectedHits counts receives satisfied from the
	// unexpected queue. Their ratio says which side of the race each
	// workload's receivers are winning.
	PostedHits     uint64
	UnexpectedHits uint64
	// DupsDropped counts inbound match/RTS frames discarded because their
	// sequence number was already delivered (a duplicated wire packet);
	// ReorderStashed counts frames that arrived ahead of a gap and were
	// parked until the missing sequence numbers filled in.
	DupsDropped    uint64
	ReorderStashed uint64
}

// engineStats is the internal, atomically-updated form of Stats: counters
// are bumped on the hot path without touching any matching lock, and
// Stats() reads never contend with matching.
type engineStats struct {
	fastSent       atomic.Uint64
	extSent        atomic.Uint64
	acksSent       atomic.Uint64
	acksRecved     atomic.Uint64
	rendezvous     atomic.Uint64
	postedHits     atomic.Uint64
	unexpectedHits atomic.Uint64
	dupsDropped    atomic.Uint64
	reorderStashed atomic.Uint64
}

// Engine is one process's ob1-style messaging engine. It performs MPI tag
// matching for every communicator (Channel) registered with it, and moves
// bytes exclusively through its BTL modules: each peer is routed, on first
// contact, to the highest-priority module whose AddProc accepts it, so
// intra-node peers ride the sm fast path while everything else goes through
// the fabric.
//
// Locking (DESIGN.md §5b). Matching state is per channel: each Channel owns
// a lock covering its posted/unexpected queues and peer (exCID/sequence)
// state, so traffic on different communicators never serializes. The engine
// keeps two narrow locks — regMu for the registries, orphan buffers, and the
// CID allocator; pendMu for the rendezvous pending maps. The packet path
// reads the registries (channels by CID and by exCID, routes by peer) from
// immutable snapshots behind atomic pointers, which writers replace under
// regMu, so a steady-state send or delivery takes no engine lock and makes
// no map probe. The hierarchy is flat: no code path acquires two of these
// locks at once, so no lock ordering issues can arise; in particular no lock
// is ever held across a BTL send or a request completion.
type Engine struct {
	btls     []btl.Module // in MCA priority order
	cfgEager int          // explicit override; 0 = per-module default
	trace    *opal.Trace  // may be nil (tracing disabled)

	closed  atomic.Bool
	nextReq atomic.Uint64

	// regMu orders registry mutations against orphan buffering and the CID
	// allocator. The channel registries are copy-on-write snapshots the
	// packet path loads without taking regMu; writers (and the lookup-miss
	// path that buffers orphans) serialize on regMu, which closes the
	// "packet races AddChannel" window.
	regMu     sync.Mutex                         //gompilint:lockorder rank=40
	comms     atomic.Pointer[[]*Channel]         // indexed by local CID; nil = free
	byEx      atomic.Pointer[map[ExCID]*Channel] // exCID channels
	orphans   map[uint16][][]byte                // fast-path packets for not-yet-registered CIDs
	orphansEx map[ExCID][][]byte                 // ext packets for not-yet-registered exCIDs
	cidHWM    int                                // CIDs below this have been claimed at least once
	cidFree   []uint16                           // released CIDs below cidHWM, sorted ascending

	// routes caches each peer's transport, indexed by global rank. The
	// table is replaced only to grow (doubling, so a rank that contacts
	// every peer copies O(peers) slots in total, not per peer); its slots
	// are atomic and written under regMu. routeEpoch, also guarded by
	// regMu, counts RevivePeer calls so a resolution that raced one is not
	// cached.
	routes     atomic.Pointer[[]atomic.Pointer[route]]
	routeEpoch uint64

	// pendMu guards the rendezvous maps: sends awaiting CTS and receives
	// awaiting DATA.
	pendMu   sync.Mutex //gompilint:lockorder rank=42
	pendSend map[uint64]*pendingSend
	pendRecv map[uint64]*postedRecv

	// failedPeers is consulted on every send; failedCount lets the common
	// no-failures case skip the map probe entirely.
	failedPeers sync.Map // int -> struct{}
	failedCount atomic.Int64

	st engineStats
}

// route is the cached transport decision for one peer.
type route struct {
	mod   btl.Module
	ep    btl.Endpoint
	eager int
}

type pendingSend struct {
	req        *Request
	payload    []byte
	destGlobal int
	ch         *Channel // owning channel, so Revoke can fail it
}

// postedRecv is one posted receive. The pseq/pnext/pprev fields are owned
// by the channel's matcher (intrusive queue links; see match.go); records
// are pooled, so a postedRecv must be referenced by exactly one queue or
// pending map at a time and is recycled by whoever takes it out last.
type postedRecv struct {
	ch  *Channel
	src int
	tag int
	buf []byte
	req *Request
	// resSrc/resTag are the matched message's actual source and tag, fixed
	// when a rendezvous match is made (src/tag may be wildcards).
	resSrc int
	resTag int

	pseq         uint64 // global post order within the channel
	pnext, pprev *postedRecv
}

// inbound is one unexpected (not yet matched) message. raw is the wire
// packet backing payload, recycled into the buffer arena when the record is
// consumed. The two link pairs thread the record onto its source's
// arrival-order list and the channel-global arrival-order list.
type inbound struct {
	src          int
	tag          int
	seq          uint16
	payload      []byte
	raw          []byte
	rndv         bool
	rndvLen      uint64
	sendReqID    uint64
	senderGlobal int

	snext, sprev *inbound
	anext, aprev *inbound
}

// peerState tracks the exCID handshake and sequencing with one peer of one
// channel. Guarded by the channel lock.
type peerState struct {
	sendSeq   uint16
	remoteCID uint16 // peer's local CID for this comm, learned from its ACK
	haveACK   bool   // we received the peer's ACK: fast path usable
	ackSent   bool   // we already acknowledged the peer's first ext message

	// recvSeq is the next inbound match/RTS sequence number expected from
	// this peer; stash parks frames that arrived ahead of a gap, keyed by
	// their sequence number, until the missing frames fill it. Together
	// they make matching immune to duplicated and reordered wire packets
	// (sequence comparison uses serial-number arithmetic, so the uint16
	// space wraps cleanly).
	recvSeq uint16
	stash   map[uint16]*inbound
}

// Channel is the PML view of one communicator: a local CID, an optional
// exCID, and the comm-rank to global-rank translation. lock guards the
// matcher and peer state; cond (bound to lock) is signaled on
// unexpected-queue arrivals and teardown. A Channel is never copied.
type Channel struct {
	eng      *Engine
	localCID uint16
	ex       ExCID
	useEx    bool
	myRank   int
	ranks    []int // comm rank -> global rank; immutable

	lock    sync.Mutex //gompilint:lockorder rank=44
	cond    sync.Cond
	removed bool
	// deadMember is set by FailPeer when any rank of this channel dies.
	// Internal (negative-tag) receives posted afterwards fail fast with
	// ErrPeerFailed: a collective on a communicator with a failed member
	// can hang on live peers that already bailed out, so it must not start.
	deadMember bool
	// allDead is set by FailPeer when EVERY non-self rank of this channel
	// has died. From then on no message can ever arrive, so wildcard
	// (AnySource) receives — which survive individual peer deaths because
	// another sender might still match them — fail fast too.
	allDead bool
	// revoked is set when any member revokes the communicator (Revoke, or
	// an incoming hdrRevoke notice). Every pending and future operation on
	// a revoked channel fails with ErrRevoked: survivors of a process
	// failure use revocation to interrupt each other's otherwise-valid
	// operations so everyone reaches the rebuild collectively.
	revoked bool
	peers   []peerState
	m       *bucketMatcher

	// persNext/persFree drive the persistent-collective tag-window
	// allocator (partitioned.go): windows are handed out lowest-first so
	// that members reserving in the same program order agree on every
	// window without communicating. Guarded by lock.
	persNext int
	persFree []int
}

// NewEngine creates an engine over the given BTL modules, listed in MCA
// priority order: a peer is carried by the first module whose AddProc
// accepts it, decided lazily on first communication and cached, mirroring
// Open MPI's on-demand add_procs (§III-B1). Every module is activated with
// the engine's delivery upcall; the caller transfers ownership and must not
// use the modules afterwards.
func NewEngine(btls []btl.Module, cfg Config) *Engine {
	e := &Engine{
		btls:      btls,
		cfgEager:  cfg.EagerLimit,
		trace:     cfg.Trace,
		orphans:   make(map[uint16][][]byte),
		orphansEx: make(map[ExCID][][]byte),
		pendSend:  make(map[uint64]*pendingSend),
		pendRecv:  make(map[uint64]*postedRecv),
	}
	for _, m := range btls {
		m.Activate(e.deliver)
	}
	return e
}

// deliver is the upcall every BTL invokes for inbound packets. It may run
// on a net progress goroutine or inline on a node-local sender's goroutine.
func (e *Engine) deliver(pkt []byte) {
	if e.closed.Load() {
		return // teardown already failed every pending request
	}
	e.handlePacket(pkt)
}

// Stats returns a snapshot of the engine's message counters.
func (e *Engine) Stats() Stats {
	return Stats{
		FastSent:       e.st.fastSent.Load(),
		ExtSent:        e.st.extSent.Load(),
		AcksSent:       e.st.acksSent.Load(),
		AcksRecved:     e.st.acksRecved.Load(),
		Rendezvous:     e.st.rendezvous.Load(),
		PostedHits:     e.st.postedHits.Load(),
		UnexpectedHits: e.st.unexpectedHits.Load(),
		DupsDropped:    e.st.dupsDropped.Load(),
		ReorderStashed: e.st.reorderStashed.Load(),
	}
}

// BTLStats returns each transport module's traffic counters, keyed by
// component name ("sm", "net").
func (e *Engine) BTLStats() map[string]btl.Stats {
	out := make(map[string]btl.Stats, len(e.btls))
	for _, m := range e.btls {
		out[m.Name()] = m.Stats()
	}
	return out
}

func (e *Engine) peerFailed(globalRank int) bool {
	if e.failedCount.Load() == 0 {
		return false
	}
	_, failed := e.failedPeers.Load(globalRank)
	return failed
}

// Close shuts down the engine: every BTL module is closed (net blocks until
// its progress goroutine has drained and exited, so no goroutine outlives
// Close), and all pending requests fail with ErrClosed. The closed flag is
// published before any queue is drained, and both Irecv and the rendezvous
// registration re-check it under their respective lock, so no request can
// slip into a queue after its drain.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	var reqs []*Request
	var frees []*postedRecv
	for _, ch := range e.channels() {
		if ch == nil {
			continue
		}
		ch.lock.Lock()
		posted := ch.m.takeAllPosted()
		unex := ch.m.takeAllUnexpected()
		unex = append(unex, ch.drainStashLocked()...)
		ch.cond.Broadcast()
		ch.lock.Unlock()
		for _, pr := range posted {
			reqs = append(reqs, pr.req)
			frees = append(frees, pr)
		}
		for _, m := range unex {
			e.putBuf(m.raw)
			e.freeInbound(m)
		}
	}
	e.pendMu.Lock()
	for _, ps := range e.pendSend {
		reqs = append(reqs, ps.req)
	}
	for _, pr := range e.pendRecv {
		reqs = append(reqs, pr.req)
		frees = append(frees, pr)
	}
	e.pendSend = map[uint64]*pendingSend{}
	e.pendRecv = map[uint64]*postedRecv{}
	e.pendMu.Unlock()
	for _, m := range e.btls {
		m.Close()
	}
	for _, r := range reqs {
		r.complete(Status{}, ErrClosed)
	}
	for _, pr := range frees {
		e.freePostedRecv(pr)
	}
}

// FailPeer reacts to a runtime process-failure notification: every posted
// receive naming the dead process as its specific source fails with
// ErrPeerFailed, as do rendezvous operations pending in either direction —
// sends awaiting the dead peer's CTS and receives whose CTS went out but
// whose DATA will never arrive. Wildcard application receives are left
// posted while any other channel member survives — they may still match
// another sender — but once the LAST non-self member dies they are failed
// too (and new ones rejected): nothing can ever send on the channel again,
// so a blocking wildcard Recv would hang forever. On every channel
// containing the dead rank, internal (negative-tag) receives are failed
// regardless of source and the channel is poisoned for future internal
// receives: a collective's dependency graph reaches the dead rank
// transitively, so waiting on a live peer that itself bailed out would hang
// forever.
func (e *Engine) FailPeer(globalRank int) {
	if _, loaded := e.failedPeers.LoadOrStore(globalRank, struct{}{}); !loaded {
		e.failedCount.Add(1)
	}
	var victims []*Request
	var frees []*postedRecv
	for _, ch := range e.channels() {
		if ch == nil {
			continue
		}
		commRank := -1
		allDead := true
		for i, r := range ch.ranks {
			if r == globalRank {
				commRank = i
			}
			if i != ch.myRank && !e.peerFailed(r) {
				allDead = false
			}
		}
		if commRank < 0 {
			continue
		}
		ch.lock.Lock()
		ch.deadMember = true
		prs := ch.m.takePostedBySrc(commRank)
		prs = append(prs, ch.m.takePostedInternal()...)
		if allDead && !ch.allDead {
			ch.allDead = true
			prs = append(prs, ch.m.takePostedWildcard()...)
		}
		ch.cond.Broadcast() // wake probes so they re-check state
		ch.lock.Unlock()
		for _, pr := range prs {
			victims = append(victims, pr.req)
			frees = append(frees, pr)
		}
	}
	e.pendMu.Lock()
	for id, ps := range e.pendSend {
		if ps.destGlobal == globalRank {
			victims = append(victims, ps.req)
			delete(e.pendSend, id)
		}
	}
	for id, pr := range e.pendRecv {
		// resSrc is the matched sender's comm rank, fixed when the CTS was
		// issued. The receive hangs if that sender died — or, for internal
		// tags, if any member of the channel died (the sender may never
		// reach its DATA send).
		dead := pr.resSrc >= 0 && pr.resSrc < len(pr.ch.ranks) && pr.ch.ranks[pr.resSrc] == globalRank
		if dead || (pr.resTag < 0 && channelHasRank(pr.ch, globalRank)) {
			victims = append(victims, pr.req)
			frees = append(frees, pr)
			delete(e.pendRecv, id)
		}
	}
	e.pendMu.Unlock()
	err := fmt.Errorf("%w: rank %d", ErrPeerFailed, globalRank)
	for _, r := range victims {
		r.complete(Status{}, err)
	}
	for _, pr := range frees {
		e.freePostedRecv(pr)
	}
}

// RevivePeer clears the failure mark for a respawned process so new
// communicators can reach its fresh incarnation: the failed-peer entry is
// dropped (sends stop failing fast) and the cached route is discarded so the
// next communication re-resolves the peer's new endpoint through the modex.
// Channels poisoned while the rank was dead STAY poisoned — their collective
// and matching state straddles two incarnations and cannot be trusted; the
// application rebuilds communicators over a survivor group instead.
func (e *Engine) RevivePeer(globalRank int) {
	if _, loaded := e.failedPeers.LoadAndDelete(globalRank); loaded {
		e.failedCount.Add(-1)
	}
	e.regMu.Lock()
	e.routeEpoch++
	if t := e.routes.Load(); t != nil && globalRank >= 0 && globalRank < len(*t) {
		(*t)[globalRank].Store(nil)
	}
	e.regMu.Unlock()
}

// Revoke marks the communicator revoked everywhere (the ULFM
// MPIX_Comm_revoke analogue): locally, every pending and future operation
// on the channel fails with ErrRevoked; remotely, a revocation notice goes
// to every member the runtime still believes alive, whose engine applies
// the same local poison on receipt. The notice is best-effort and
// direct — every member that observed the triggering failure revokes too,
// so delivery does not depend on a single revoker surviving. Revoking an
// already-revoked (or removed) channel is a no-op.
//
// Revocation exists for exactly one situation: a member died, some
// survivors noticed (their operations toward the dead rank failed) and
// abandoned the communicator, and other survivors are still blocked in
// operations among themselves that no one will ever complete. FailPeer
// cannot unblock those — the blocked operation's peer is alive — so the
// survivors that DID notice interrupt the rest.
func (e *Engine) Revoke(ch *Channel) {
	if !e.revokeLocal(ch) {
		return
	}
	for i, g := range ch.ranks {
		if i == ch.myRank || e.peerFailed(g) {
			continue
		}
		rt, err := e.routeTo(g)
		if err != nil {
			continue // unreachable peer learns from another revoker
		}
		// Unlike data packets, a revocation notice deliberately races with
		// the receiver freeing this communicator and building its
		// replacement. Local CIDs are recycled, so a notice addressed by
		// remoteCID could poison an innocent successor channel that reused
		// the number; the exCID is never reused, so exCID channels always
		// address the notice extended. (Consensus-CID channels have no
		// unique identity on the wire — there the notice is best-effort and
		// the tiny reuse window is accepted.)
		ext := ch.useEx
		hdr := matchHeader{typ: hdrRevoke, ctx: ch.localCID, src: uint32(ch.myRank)}
		if ext {
			hdr.flags |= flagExt
		}
		pkt := e.buildPacket(hdr, ch, ext, nil, nil)
		_ = rt.ep.Send(pkt)
	}
}

// revokeLocal applies the local half of a revocation: poison the channel,
// fail every posted receive and every pending rendezvous operation on it.
// Reports whether this call was the one that revoked (false if the channel
// was already revoked or removed).
func (e *Engine) revokeLocal(ch *Channel) bool {
	ch.lock.Lock()
	if ch.revoked || ch.removed {
		ch.lock.Unlock()
		return false
	}
	ch.revoked = true
	posted := ch.m.takeAllPosted()
	ch.cond.Broadcast() // wake probes so they re-check state
	ch.lock.Unlock()

	var victims []*Request
	frees := append([]*postedRecv(nil), posted...)
	for _, pr := range posted {
		victims = append(victims, pr.req)
	}
	e.pendMu.Lock()
	for id, ps := range e.pendSend {
		if ps.ch == ch {
			victims = append(victims, ps.req)
			delete(e.pendSend, id)
		}
	}
	for id, pr := range e.pendRecv {
		if pr.ch == ch {
			victims = append(victims, pr.req)
			frees = append(frees, pr)
			delete(e.pendRecv, id)
		}
	}
	e.pendMu.Unlock()
	for _, r := range victims {
		r.complete(Status{}, ErrRevoked)
	}
	for _, pr := range frees {
		e.freePostedRecv(pr)
	}
	return true
}

// handleRevoke poisons the addressed channel on receipt of a member's
// revocation notice. An exCID-addressed notice racing ahead of the local
// communicator construction is buffered with the other early packets and
// replayed by AddChannel, so the revocation is not lost. A consensus-CID
// notice that finds no channel is dropped instead: the receiver may
// already have freed the communicator, local CIDs are recycled, and a
// parked notice would be replayed into whatever successor channel claims
// the number next.
func (e *Engine) handleRevoke(pkt []byte, env envelope) {
	var ch *Channel
	if env.hasExt {
		ch = e.channelByEx(env.ext.ex)
		if ch == nil {
			e.regMu.Lock()
			if ch = e.channelByEx(env.ext.ex); ch == nil {
				e.orphansEx[env.ext.ex] = append(e.orphansEx[env.ext.ex], pkt)
			}
			e.regMu.Unlock()
			if ch == nil {
				return
			}
		}
	} else {
		ch = e.channelByCID(env.hdr.ctx)
		if ch == nil {
			e.putBuf(pkt)
			return
		}
	}
	e.revokeLocal(ch)
	e.putBuf(pkt)
}

func channelHasRank(ch *Channel, globalRank int) bool {
	for _, r := range ch.ranks {
		if r == globalRank {
			return true
		}
	}
	return false
}

// AllocCID returns the lowest unused local CID at or above min, reserving
// nothing: the caller must register a channel to claim it. It mirrors Open
// MPI's "lowest available index in the local communicator array" step of
// the consensus algorithm.
func (e *Engine) AllocCID(min uint16) uint16 {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	return e.lowestFreeCID(min)
}

// lowestFreeCID answers from the free list plus a high-water mark instead
// of rescanning the registry per candidate: every CID below cidHWM that is
// not currently claimed sits in the sorted cidFree slice, so the lowest
// free CID >= min is one binary search away. Caller holds regMu.
func (e *Engine) lowestFreeCID(min uint16) uint16 {
	i := sort.Search(len(e.cidFree), func(i int) bool { return e.cidFree[i] >= min })
	if i < len(e.cidFree) {
		return e.cidFree[i]
	}
	if int(min) > e.cidHWM {
		return min
	}
	return uint16(e.cidHWM)
}

// claimCID marks cid in use. Claims above the high-water mark push the
// skipped range onto the free list (the appended values exceed every
// existing entry, so the list stays sorted). Caller holds regMu.
func (e *Engine) claimCID(cid uint16) {
	if int(cid) >= e.cidHWM {
		for v := e.cidHWM; v < int(cid); v++ {
			e.cidFree = append(e.cidFree, uint16(v))
		}
		e.cidHWM = int(cid) + 1
		return
	}
	i := sort.Search(len(e.cidFree), func(i int) bool { return e.cidFree[i] >= cid })
	if i < len(e.cidFree) && e.cidFree[i] == cid {
		e.cidFree = append(e.cidFree[:i], e.cidFree[i+1:]...)
	}
}

// releaseCID returns cid to the allocator (sorted insert). Caller holds
// regMu.
func (e *Engine) releaseCID(cid uint16) {
	if int(cid) >= e.cidHWM {
		return
	}
	i := sort.Search(len(e.cidFree), func(i int) bool { return e.cidFree[i] >= cid })
	if i < len(e.cidFree) && e.cidFree[i] == cid {
		return // already free
	}
	e.cidFree = append(e.cidFree, 0)
	copy(e.cidFree[i+1:], e.cidFree[i:])
	e.cidFree[i] = cid
}

// AddChannel registers a communicator with the matching engine. localCID
// must be unused. For exCID communicators (useEx), ex must be unique.
// Packets that raced ahead of the registration (a peer finished creating
// the communicator first and already sent) are replayed.
func (e *Engine) AddChannel(localCID uint16, ex ExCID, useEx bool, myRank int, ranks []int) (*Channel, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	ch := &Channel{
		eng:      e,
		localCID: localCID,
		ex:       ex,
		useEx:    useEx,
		myRank:   myRank,
		ranks:    append([]int(nil), ranks...),
		peers:    make([]peerState, len(ranks)),
		m:        newBucketMatcher(len(ranks)),
	}
	ch.cond.L = &ch.lock
	e.regMu.Lock()
	if e.channelByCID(localCID) != nil {
		e.regMu.Unlock()
		return nil, fmt.Errorf("pml: local CID %d already in use", localCID)
	}
	if useEx && e.channelByEx(ex) != nil {
		e.regMu.Unlock()
		return nil, fmt.Errorf("pml: exCID %v already in use", ex)
	}
	e.publishCIDLocked(localCID, ch)
	e.claimCID(localCID)
	var replay [][]byte
	if useEx {
		e.publishExLocked(ex, ch)
		replay = e.orphansEx[ex]
		delete(e.orphansEx, ex)
	} else {
		replay = e.orphans[localCID]
		delete(e.orphans, localCID)
	}
	e.regMu.Unlock()
	for _, pkt := range replay {
		e.handlePacket(pkt)
	}
	return ch, nil
}

// RemoveChannel deregisters a communicator. Posted receives on it fail.
// The registry entries go first so in-flight packets fall through to the
// orphan buffers; a handler that captured the channel pointer before the
// delete observes the removed flag under the channel lock and retries its
// lookup.
func (e *Engine) RemoveChannel(ch *Channel) {
	e.regMu.Lock()
	if e.channelByCID(ch.localCID) == ch {
		e.publishCIDLocked(ch.localCID, nil)
		if ch.useEx {
			e.publishExLocked(ch.ex, nil)
		}
		e.releaseCID(ch.localCID)
	}
	e.regMu.Unlock()
	ch.lock.Lock()
	if ch.removed {
		ch.lock.Unlock()
		return
	}
	ch.removed = true
	posted := ch.m.takeAllPosted()
	unex := ch.m.takeAllUnexpected()
	unex = append(unex, ch.drainStashLocked()...)
	ch.cond.Broadcast()
	ch.lock.Unlock()
	for _, m := range unex {
		e.putBuf(m.raw)
		e.freeInbound(m)
	}
	for _, pr := range posted {
		pr.req.complete(Status{}, ErrClosed)
		e.freePostedRecv(pr)
	}
}

// drainStashLocked empties every peer's out-of-order stash for teardown.
// Caller holds the channel lock. Stashed RTS records have a nil raw, which
// putBuf treats as a no-op, so the caller can recycle uniformly.
func (ch *Channel) drainStashLocked() []*inbound {
	var out []*inbound
	for i := range ch.peers {
		for _, m := range ch.peers[i].stash {
			out = append(out, m)
		}
		ch.peers[i].stash = nil
	}
	return out
}

// channels returns the current CID-indexed channel snapshot (nil slots are
// free CIDs). Callers must not modify it.
func (e *Engine) channels() []*Channel {
	if t := e.comms.Load(); t != nil {
		return *t
	}
	return nil
}

// channelByCID returns the channel registered under a local CID, or nil.
func (e *Engine) channelByCID(cid uint16) *Channel {
	if t := e.channels(); int(cid) < len(t) {
		return t[cid]
	}
	return nil
}

// channelByEx returns the channel registered under an exCID, or nil.
func (e *Engine) channelByEx(ex ExCID) *Channel {
	if m := e.byEx.Load(); m != nil {
		return (*m)[ex]
	}
	return nil
}

// publishCIDLocked replaces the CID snapshot with a copy whose slot cid
// holds ch (nil frees it), trimmed of trailing free slots. Caller holds
// regMu.
func (e *Engine) publishCIDLocked(cid uint16, ch *Channel) {
	old := e.channels()
	t := make([]*Channel, max(len(old), int(cid)+1))
	copy(t, old)
	t[cid] = ch
	for len(t) > 0 && t[len(t)-1] == nil {
		t = t[:len(t)-1]
	}
	e.comms.Store(&t)
}

// publishExLocked replaces the exCID snapshot with a copy mapping ex to ch
// (nil removes it). Caller holds regMu.
func (e *Engine) publishExLocked(ex ExCID, ch *Channel) {
	var old map[ExCID]*Channel
	if p := e.byEx.Load(); p != nil {
		old = *p
	}
	m := make(map[ExCID]*Channel, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	if ch != nil {
		m[ex] = ch
	} else {
		delete(m, ex)
	}
	e.byEx.Store(&m)
}

// LocalCID returns the channel's local communicator ID.
func (ch *Channel) LocalCID() uint16 { return ch.localCID }

// Ex returns the channel's extended CID (zero-valued if not in use).
func (ch *Channel) Ex() ExCID { return ch.ex }

// Size returns the number of ranks in the channel.
func (ch *Channel) Size() int { return len(ch.ranks) }

// Rank returns the calling process's rank within the channel.
func (ch *Channel) Rank() int { return ch.myRank }

// GlobalRank translates a comm rank to the job-global rank.
func (ch *Channel) GlobalRank(commRank int) int { return ch.ranks[commRank] }

// PeerConnected reports whether the exCID handshake with a peer has
// completed (always true for consensus-CID channels).
func (ch *Channel) PeerConnected(commRank int) bool {
	if !ch.useEx {
		return true
	}
	ch.lock.Lock()
	defer ch.lock.Unlock()
	return ch.peers[commRank].haveACK
}

// routeTo returns the cached transport for a peer, selecting one on first
// use: modules are tried in priority order and the first whose AddProc
// accepts the peer wins; ErrUnreachable falls through to the next module,
// any other resolution error aborts. AddProc may block on the modex
// exchange, so it runs with no lock held; the steady-state hit is two atomic
// loads.
func (e *Engine) routeTo(globalRank int) (*route, error) {
	if rt := e.cachedRoute(globalRank); rt != nil {
		return rt, nil
	}
	e.regMu.Lock()
	epoch := e.routeEpoch
	e.regMu.Unlock()
	for _, m := range e.btls {
		ep, err := m.AddProc(globalRank)
		if errors.Is(err, btl.ErrUnreachable) {
			if e.trace != nil {
				e.trace.Logf("btl", "%s cannot reach rank %d, falling back", m.Name(), globalRank)
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		eager := e.cfgEager
		if eager <= 0 {
			eager = m.EagerLimit()
		}
		if eager <= 0 {
			eager = DefaultEagerLimit
		}
		if e.trace != nil {
			e.trace.Logf("btl", "rank %d routed via %s (eager=%d)", globalRank, m.Name(), eager)
		}
		return e.installRoute(globalRank, &route{mod: m, ep: ep, eager: eager}, epoch), nil
	}
	return nil, fmt.Errorf("pml: no btl module reaches rank %d", globalRank)
}

// cachedRoute returns the cached transport for a peer, or nil.
func (e *Engine) cachedRoute(globalRank int) *route {
	if t := e.routes.Load(); t != nil && globalRank >= 0 && globalRank < len(*t) {
		return (*t)[globalRank].Load()
	}
	return nil
}

// installRoute caches rt for a peer unless a concurrent caller routed it
// first, in which case the earlier route wins and is returned. A route
// resolved before a RevivePeer (epoch is stale) may name the dead
// incarnation's endpoint: it is handed to this one caller but not cached.
func (e *Engine) installRoute(globalRank int, rt *route, epoch uint64) *route {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if epoch != e.routeEpoch || globalRank < 0 {
		return rt
	}
	var t []atomic.Pointer[route]
	if p := e.routes.Load(); p != nil {
		t = *p
	}
	if globalRank >= len(t) {
		grown := make([]atomic.Pointer[route], max(2*len(t), globalRank+1))
		for i := range t {
			grown[i].Store(t[i].Load())
		}
		e.routes.Store(&grown)
		t = grown
	}
	if prior := t[globalRank].Load(); prior != nil {
		return prior
	}
	t[globalRank].Store(rt)
	return rt
}

// Isend starts a nonblocking send of buf to dest (a comm rank) with tag.
// Eager messages complete as soon as they are injected; larger messages use
// the rendezvous protocol and complete when the receiver has drained them.
func (ch *Channel) Isend(dest, tag int, buf []byte) *Request {
	return ch.isend(dest, tag, buf, false)
}

// Issend starts a nonblocking synchronous-mode send (MPI_Issend): the
// request completes only after the receiver has matched the message. It
// always uses the rendezvous protocol, whose CTS is exactly the
// matched-notification synchronous mode needs.
func (ch *Channel) Issend(dest, tag int, buf []byte) *Request {
	return ch.isend(dest, tag, buf, true)
}

// Ssend is the blocking form of Issend (MPI_Ssend).
func (ch *Channel) Ssend(dest, tag int, buf []byte) error {
	return ch.send(dest, tag, buf, true)
}

// Send is the blocking form of Isend.
//
//gompilint:noalloc
func (ch *Channel) Send(dest, tag int, buf []byte) error {
	return ch.send(dest, tag, buf, false)
}

// send is the blocking send. An eager send finishes inside startSend and
// builds no request; a rendezvous or synchronous send waits on a pooled one.
//
//gompilint:noalloc
func (ch *Channel) send(dest, tag int, buf []byte, synchronous bool) error {
	req, err := ch.startSend(dest, tag, buf, synchronous, getRequest)
	if req == nil {
		return err
	}
	_, err = waitPooled(req)
	return err
}

func (ch *Channel) isend(dest, tag int, buf []byte, synchronous bool) *Request {
	req, err := ch.startSend(dest, tag, buf, synchronous, newRequest)
	if req != nil {
		return req
	}
	if err != nil {
		return completedRequest(Status{}, err)
	}
	return completedRequest(Status{Source: ch.myRank, Tag: tag, Count: len(buf)}, nil)
}

// startSend injects one message: the whole payload when it is eager, or
// the RTS of a rendezvous transfer. It returns a request, drawn from
// newReq, only while the operation is still pending (a rendezvous awaiting
// its CTS and DATA); an operation that finished here — every eager send,
// and any send that failed — returns a nil request and its outcome as err.
//
//gompilint:noalloc
func (ch *Channel) startSend(dest, tag int, buf []byte, synchronous bool, newReq func() *Request) (*Request, error) {
	e := ch.eng
	if dest < 0 || dest >= len(ch.ranks) {
		return nil, fmt.Errorf("pml: send dest %d out of range [0,%d)", dest, len(ch.ranks)) //gompilint:ignore noalloc -- error path
	}
	destGlobal := ch.ranks[dest]

	// Fail fast before routing: routeTo may block resolving a peer that
	// the runtime already declared dead.
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.peerFailed(destGlobal) {
		return nil, fmt.Errorf("%w: rank %d", ErrPeerFailed, destGlobal) //gompilint:ignore noalloc -- error path
	}

	rt, err := e.routeTo(destGlobal)
	if err != nil {
		return nil, err
	}

	ch.lock.Lock()
	if ch.revoked {
		ch.lock.Unlock()
		return nil, ErrRevoked
	}
	ps := &ch.peers[dest]
	seq := ps.sendSeq
	ps.sendSeq++
	ext := false
	ctx := ch.localCID
	if ch.useEx {
		if ps.haveACK {
			ctx = ps.remoteCID
		} else {
			ext = true
		}
	}
	ch.lock.Unlock()

	eager := len(buf) <= rt.eager && !synchronous
	var reqID uint64
	var req *Request
	if !eager {
		reqID = e.nextReq.Add(1)
		req = newReq()
		ps := &pendingSend{req: req, payload: buf, destGlobal: destGlobal, ch: ch} //gompilint:ignore noalloc -- rendezvous only
		e.pendMu.Lock()
		if e.closed.Load() {
			e.pendMu.Unlock()
			return nil, ErrClosed
		}
		if e.peerFailed(destGlobal) {
			// FailPeer marks the peer before sweeping pendSend under
			// pendMu: re-checking here means either it sees this send or
			// this send sees the mark, never neither.
			e.pendMu.Unlock()
			return nil, fmt.Errorf("%w: rank %d", ErrPeerFailed, destGlobal) //gompilint:ignore noalloc -- error path
		}
		e.pendSend[reqID] = ps //gompilint:ignore noalloc -- rendezvous only
		e.pendMu.Unlock()
		e.st.rendezvous.Add(1)
	}
	if ext {
		e.st.extSent.Add(1)
	} else {
		e.st.fastSent.Add(1)
	}

	hdr := matchHeader{ctx: ctx, src: uint32(ch.myRank), tag: int32(tag), seq: seq}
	if ext {
		hdr.flags |= flagExt
	}

	var pkt []byte
	if eager {
		hdr.typ = hdrMatch
		pkt = e.buildPacket(hdr, ch, ext, buf, nil)
	} else {
		hdr.typ = hdrRTS
		var info [rndvInfoLen]byte
		ri := rndvInfo{length: uint64(len(buf)), sendReqID: reqID}
		putRndvInfo(info[:], ri)
		pkt = e.buildPacket(hdr, ch, ext, info[:], nil)
	}

	// Send with no lock held: the sm BTL delivers inline on this
	// goroutine, and the receiver's handler (or our own, on a self-send)
	// may send replies that re-enter the engine.
	if err := rt.ep.Send(pkt); err != nil {
		err = e.wrapSendErr(destGlobal, err)
		if eager {
			return nil, err
		}
		// Only the party that takes the record out of pendSend completes
		// its request: if FailPeer, Revoke or Close got there first, they
		// complete it and this send reports through the request.
		e.pendMu.Lock()
		_, mine := e.pendSend[reqID]
		delete(e.pendSend, reqID)
		e.pendMu.Unlock()
		if !mine {
			return req, nil
		}
		return nil, err
	}
	if eager {
		return nil, nil
	}
	return req, nil
}

// buildPacket assembles header(s) + body (+extra appended after body) into
// an arena buffer; the receiving engine recycles it after consumption.
func (e *Engine) buildPacket(hdr matchHeader, ch *Channel, ext bool, body, extra []byte) []byte {
	n := matchHeaderLen
	if ext {
		n += extHeaderLen
	}
	pkt := e.getBuf(n + len(body) + len(extra))
	putMatchHeader(pkt, hdr)
	off := matchHeaderLen
	if ext {
		putExtHeader(pkt[off:], extHeader{ex: ch.ex, localCID: ch.localCID, commSize: uint32(len(ch.ranks))})
		off += extHeaderLen
	}
	copy(pkt[off:], body)
	copy(pkt[off+len(body):], extra)
	return pkt
}

// Irecv posts a nonblocking receive from src (comm rank or AnySource) with
// tag (or AnyTag) into buf.
func (ch *Channel) Irecv(src, tag int, buf []byte) *Request {
	req := newRequest()
	ch.postRecv(src, tag, buf, req)
	return req
}

// Recv is the blocking form of Irecv; its request comes from the pool and
// goes back to it, so a receive allocates nothing.
//
//gompilint:noalloc
func (ch *Channel) Recv(src, tag int, buf []byte) (Status, error) {
	req := getRequest()
	ch.postRecv(src, tag, buf, req)
	return waitPooled(req)
}

// postRecv matches a receive against the unexpected queue or posts it, and
// completes req itself when the receive is rejected up front.
//
//gompilint:noalloc
func (ch *Channel) postRecv(src, tag int, buf []byte, req *Request) {
	e := ch.eng
	var failed Status // the status of a receive rejected up front
	if src != AnySource && (src < 0 || src >= len(ch.ranks)) {
		req.complete(failed, fmt.Errorf("pml: recv src %d out of range [0,%d)", src, len(ch.ranks))) //gompilint:ignore noalloc -- error path
		return
	}
	if e.closed.Load() {
		req.complete(failed, ErrClosed)
		return
	}
	pr := e.newPostedRecv()
	pr.ch, pr.src, pr.tag, pr.buf, pr.req = ch, src, tag, buf, req

	ch.lock.Lock()
	var err error
	var msg *inbound
	if e.closed.Load() || ch.removed {
		err = ErrClosed
	} else if ch.revoked {
		// Revocation is terminal: even messages already in the unexpected
		// queue are not delivered — the communicator's state is no longer
		// globally consistent and the caller must rebuild.
		err = ErrRevoked
	} else if msg = ch.m.takeUnexpected(src, tag); msg == nil {
		switch {
		case src != AnySource && e.peerFailed(ch.ranks[src]):
			// The runtime declared the source dead: a message it sent
			// before dying was just drained above, but never block
			// waiting for a new one. The check runs under the channel
			// lock because FailPeer marks the peer before it sweeps each
			// channel's posted queue under that lock: either this sees the
			// mark, or the sweep sees this receive.
			err = fmt.Errorf("%w: rank %d", ErrPeerFailed, ch.ranks[src]) //gompilint:ignore noalloc -- error path
		case src == AnySource && ch.allDead:
			// Every peer that could ever match this wildcard is dead and
			// its pre-death traffic was just drained above: nothing will
			// arrive, so posting would hang forever.
			err = fmt.Errorf("%w: all channel peers failed", ErrPeerFailed) //gompilint:ignore noalloc -- error path
		case ch.deadMember && tag < 0 && tag != AnyTag:
			// A collective must not start (or continue) on a communicator
			// with a failed member: its dependency graph includes the dead
			// rank, so this receive could hang on a live-but-bailed peer.
			err = fmt.Errorf("%w: communicator has a failed member", ErrPeerFailed) //gompilint:ignore noalloc -- error path
		default:
			ch.m.pushPosted(pr)
			ch.lock.Unlock()
			return
		}
	}
	ch.lock.Unlock()
	if err != nil {
		e.freePostedRecv(pr)
		req.complete(failed, err)
		return
	}
	e.st.unexpectedHits.Add(1)
	e.consume(pr, msg)
}

// consume finishes matching a posted receive against an inbound message.
// Called with no locks held; both records have been removed from every
// queue, so this goroutine owns them.
func (e *Engine) consume(pr *postedRecv, msg *inbound) {
	if !msg.rndv {
		n := copy(pr.buf, msg.payload)
		st := Status{Source: msg.src, Tag: msg.tag, Count: n}
		var err error
		if len(msg.payload) > len(pr.buf) {
			err = ErrTruncate
		}
		e.putBuf(msg.raw)
		e.freeInbound(msg)
		pr.req.complete(st, err)
		e.freePostedRecv(pr)
		return
	}
	// Rendezvous: register the receive and send CTS.
	recvID := e.nextReq.Add(1)
	pr.resSrc, pr.resTag = msg.src, msg.tag
	sendReqID, senderGlobal := msg.sendReqID, msg.senderGlobal
	ch := pr.ch
	e.freeInbound(msg)
	e.pendMu.Lock()
	if e.closed.Load() {
		e.pendMu.Unlock()
		pr.req.complete(Status{}, ErrClosed)
		e.freePostedRecv(pr)
		return
	}
	e.pendRecv[recvID] = pr
	e.pendMu.Unlock()
	e.sendCTS(ch, senderGlobal, sendReqID, recvID)
}

func (e *Engine) sendCTS(ch *Channel, senderGlobal int, sendReqID, recvID uint64) {
	pkt := e.getBuf(matchHeaderLen + ctsInfoLen)
	putMatchHeader(pkt, matchHeader{typ: hdrCTS, ctx: 0, src: uint32(ch.myRank)})
	putCTSInfo(pkt[matchHeaderLen:], ctsInfo{sendReqID: sendReqID, recvReqID: recvID})
	rt, err := e.routeTo(senderGlobal)
	if err == nil {
		err = rt.ep.Send(pkt)
	}
	if err != nil {
		e.pendMu.Lock()
		pr := e.pendRecv[recvID]
		delete(e.pendRecv, recvID)
		e.pendMu.Unlock()
		if pr != nil {
			pr.req.complete(Status{}, e.wrapSendErr(senderGlobal, err))
			e.freePostedRecv(pr)
		}
	}
}

// wrapSendErr classifies a transport error for traffic toward a peer the
// runtime has declared dead: the closed endpoint IS the peer failure, so
// surface it as ErrPeerFailed rather than a generic transport error. Errors
// toward live peers pass through unchanged.
func (e *Engine) wrapSendErr(destGlobal int, err error) error {
	if err == nil || errors.Is(err, ErrPeerFailed) {
		return err
	}
	if e.peerFailed(destGlobal) {
		return fmt.Errorf("%w: rank %d: %v", ErrPeerFailed, destGlobal, err)
	}
	return err
}

func probeStatus(msg *inbound) Status {
	n := len(msg.payload)
	if msg.rndv {
		n = int(msg.rndvLen)
	}
	return Status{Source: msg.src, Tag: msg.tag, Count: n}
}

// Iprobe checks for a matching unexpected message without receiving it.
func (ch *Channel) Iprobe(src, tag int) (Status, bool) {
	ch.lock.Lock()
	defer ch.lock.Unlock()
	if msg := ch.m.peekUnexpected(src, tag); msg != nil {
		return probeStatus(msg), true
	}
	return Status{}, false
}

// Probe blocks until a matching message is available (without consuming it).
func (ch *Channel) Probe(src, tag int) (Status, error) {
	e := ch.eng
	ch.lock.Lock()
	defer ch.lock.Unlock()
	for {
		if e.closed.Load() || ch.removed {
			return Status{}, ErrClosed
		}
		if msg := ch.m.peekUnexpected(src, tag); msg != nil {
			return probeStatus(msg), nil
		}
		ch.cond.Wait()
	}
}

// handlePacket decodes and dispatches one wire packet. It runs on whatever
// goroutine the carrying BTL delivers from and holds no locks across sends.
// The engine owns pkt from here on (btl.DeliverFunc contract) and recycles
// it once nothing references the backing array.
func (e *Engine) handlePacket(pkt []byte) {
	env, err := decodeEnvelope(pkt)
	if err != nil {
		return // truncated or unknown: drop, as ob1 does for corrupt frames
	}
	hdr := env.hdr

	switch hdr.typ {
	case hdrMatch, hdrRTS:
		e.handleMatch(pkt, env)

	case hdrCTS:
		e.pendMu.Lock()
		ps := e.pendSend[env.cts.sendReqID]
		delete(e.pendSend, env.cts.sendReqID)
		e.pendMu.Unlock()
		if ps == nil {
			e.putBuf(pkt) // duplicate or stale CTS: the send already resolved
			return
		}
		// Ship the payload tagged with the receiver's request ID.
		data := e.getBuf(matchHeaderLen + dataInfoLen + len(ps.payload))
		putMatchHeader(data, matchHeader{typ: hdrData})
		putUint64(data[matchHeaderLen:], env.cts.recvReqID)
		copy(data[matchHeaderLen+dataInfoLen:], ps.payload)
		e.putBuf(pkt)
		rt, err := e.routeTo(ps.destGlobal)
		if err == nil {
			err = rt.ep.Send(data)
		}
		if err != nil {
			ps.req.complete(Status{}, e.wrapSendErr(ps.destGlobal, err))
			return
		}
		ps.req.complete(Status{Count: len(ps.payload)}, nil)

	case hdrData:
		e.pendMu.Lock()
		pr := e.pendRecv[env.dataReqID]
		delete(e.pendRecv, env.dataReqID)
		e.pendMu.Unlock()
		if pr == nil {
			e.putBuf(pkt) // duplicate DATA or failed receive: nothing to fill
			return
		}
		n := copy(pr.buf, env.payload)
		st := Status{Source: pr.resSrc, Tag: pr.resTag, Count: n}
		var cerr error
		if len(env.payload) > len(pr.buf) {
			cerr = ErrTruncate
		}
		e.putBuf(pkt)
		pr.req.complete(st, cerr)
		e.freePostedRecv(pr)

	case hdrRevoke:
		e.handleRevoke(pkt, env)

	case hdrCIDAck:
		if ch := e.channelByEx(env.ack.ex); ch != nil {
			if int(env.ack.commRank) < len(ch.peers) {
				ch.lock.Lock()
				ps := &ch.peers[env.ack.commRank]
				ps.remoteCID = env.ack.localCID
				ps.haveACK = true
				ch.lock.Unlock()
			}
		}
		e.st.acksRecved.Add(1)
		e.putBuf(pkt)
	}
}

// handleMatch routes an eager (hdrMatch) or rendezvous-RTS packet through
// tag matching on its channel.
func (e *Engine) handleMatch(pkt []byte, env envelope) {
	hdr := env.hdr
	for {
		var ch *Channel
		if env.hasExt {
			ch = e.channelByEx(env.ext.ex)
		} else {
			ch = e.channelByCID(hdr.ctx)
		}
		if ch == nil {
			// The communicator is still being constructed locally: buffer
			// and replay on AddChannel. Re-check the registry under regMu
			// first — AddChannel holds it while taking the orphan list, so
			// a packet cannot slip into orphans after its replay.
			e.regMu.Lock()
			if env.hasExt {
				if ch = e.channelByEx(env.ext.ex); ch == nil {
					e.orphansEx[env.ext.ex] = append(e.orphansEx[env.ext.ex], pkt)
				}
			} else {
				if ch = e.channelByCID(hdr.ctx); ch == nil {
					e.orphans[hdr.ctx] = append(e.orphans[hdr.ctx], pkt)
				}
			}
			e.regMu.Unlock()
			if ch == nil {
				return
			}
		}
		if int(hdr.src) >= len(ch.ranks) {
			e.putBuf(pkt)
			return // corrupt source rank
		}

		msg := e.newInbound()
		msg.src = int(hdr.src)
		msg.tag = int(hdr.tag)
		msg.seq = hdr.seq
		msg.senderGlobal = ch.ranks[hdr.src]
		if hdr.typ == hdrRTS {
			msg.rndv = true
			msg.rndvLen = env.rndv.length
			msg.sendReqID = env.rndv.sendReqID
		} else {
			msg.payload = env.payload
			msg.raw = pkt
		}

		var needAck bool
		var ackTo int
		ch.lock.Lock()
		if ch.removed {
			ch.lock.Unlock()
			msg.raw = nil
			e.freeInbound(msg)
			continue // channel torn down under us: redo the lookup
		}
		ps := &ch.peers[hdr.src]
		if env.hasExt && !ps.ackSent {
			ps.ackSent = true
			needAck = true
			ackTo = ch.ranks[hdr.src]
		}

		// Sequence screening: the sender stamps every match/RTS frame with a
		// per-(channel, peer) sequence number. A frame behind the expected
		// number — or equal to one already parked — is a duplicate and is
		// dropped; a frame ahead of it is parked until the gap fills. This
		// is what makes the matching path immune to duplicated or reordered
		// first messages on an exCID channel (and everywhere else).
		if d := int16(msg.seq - ps.recvSeq); d != 0 {
			if d < 0 || ps.stash[msg.seq] != nil {
				ch.lock.Unlock()
				e.st.dupsDropped.Add(1)
				msg.raw = nil
				e.freeInbound(msg)
				e.putBuf(pkt)
			} else {
				if ps.stash == nil {
					ps.stash = make(map[uint16]*inbound)
				}
				ps.stash[msg.seq] = msg
				ch.lock.Unlock()
				e.st.reorderStashed.Add(1)
				if hdr.typ == hdrRTS {
					e.putBuf(pkt) // fully decoded into msg; the frame is done
				}
			}
			if needAck {
				e.sendChannelAck(ch, ackTo)
			}
			return
		}

		// In sequence: deliver, then drain any parked successors in order.
		ps.recvSeq++
		matched := ch.m.takePosted(msg.src, msg.tag)
		if matched == nil {
			ch.m.pushUnexpected(msg)
			ch.cond.Broadcast()
		}
		var drained []*inbound
		var drainedMatch []*postedRecv
		for len(ps.stash) > 0 {
			nxt, ok := ps.stash[ps.recvSeq]
			if !ok {
				break
			}
			delete(ps.stash, ps.recvSeq)
			ps.recvSeq++
			m2 := ch.m.takePosted(nxt.src, nxt.tag)
			if m2 == nil {
				ch.m.pushUnexpected(nxt)
				ch.cond.Broadcast()
			}
			drained = append(drained, nxt)
			drainedMatch = append(drainedMatch, m2)
		}
		ch.lock.Unlock()

		if matched != nil {
			e.st.postedHits.Add(1)
			e.consume(matched, msg)
		}
		for i, m2 := range drainedMatch {
			if m2 != nil {
				e.st.postedHits.Add(1)
				e.consume(m2, drained[i])
			}
		}
		if hdr.typ == hdrRTS {
			e.putBuf(pkt) // RTS is fully decoded into msg; the frame is done
		}
		if needAck {
			e.sendChannelAck(ch, ackTo)
		}
		return
	}
}

// sendChannelAck emits the one-time CID handshake ACK for a channel.
func (e *Engine) sendChannelAck(ch *Channel, ackTo int) {
	e.st.acksSent.Add(1)
	ack := e.buildCIDAck(ch)
	if rt, err := e.routeTo(ackTo); err == nil {
		_ = rt.ep.Send(ack)
	}
}

// buildCIDAck assembles the handshake ACK for a channel (immutable fields
// only; no lock needed).
func (e *Engine) buildCIDAck(ch *Channel) []byte {
	pkt := e.getBuf(matchHeaderLen + cidAckLen)
	putMatchHeader(pkt, matchHeader{typ: hdrCIDAck})
	putCIDAck(pkt[matchHeaderLen:], cidAck{ex: ch.ex, localCID: ch.localCID, commRank: uint32(ch.myRank)})
	return pkt
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
