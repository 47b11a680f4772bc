package coll

import "fmt"

// The schedule model (DESIGN.md §5c). A collective algorithm no longer
// drives the transport directly: it *emits* a schedule — a DAG of typed
// steps (send, recv, sendrecv, local reduce, copy) with explicit
// dependencies — through a builder. The compiled schedule is independent of
// the call's buffers and tag window: steps reference buffers symbolically
// (send buffer / recv buffer / staging arena + offset) and tags as small
// offsets inside the caller's 16-tag collective window. One compiled
// schedule therefore serves every call with the same shape (op, algorithm,
// sizes, root) on one communicator, which is what makes both the one-shot
// schedule cache and the persistent *_init collectives possible: binding a
// schedule to concrete buffers and a tag base is allocation-light, and a
// persistent binding reuses its staging arena and execution state across
// every Start.

// bufKind names the three buffer spaces a step may reference.
type bufKind uint8

const (
	bufNone  bufKind = iota
	bufSend          // the caller's send buffer (for bcast: the payload buffer)
	bufRecv          // the caller's receive buffer
	bufStage         // the schedule's staging arena, sized by the builder
)

// bufRef is a symbolic byte range: resolved against a binding at run time.
type bufRef struct {
	kind bufKind
	off  int
	n    int
}

// stepKind enumerates the five step types of the DAG.
type stepKind uint8

const (
	stepSend     stepKind = iota // send a to peer
	stepRecv                     // receive into a from peer
	stepSendrecv                 // send a to peer, receive into b from peer2
	stepReduce                   // a = rf(a, b) over count elements
	stepCopy                     // copy b into a
)

func (k stepKind) String() string {
	switch k {
	case stepSend:
		return "send"
	case stepRecv:
		return "recv"
	case stepSendrecv:
		return "sendrecv"
	case stepReduce:
		return "reduce"
	case stepCopy:
		return "copy"
	}
	return "step?"
}

// step is one node of the DAG. deps always point at earlier steps: the
// builder appends steps in a valid sequential order, so executing steps in
// index order with blocking transport calls is always correct (the
// sequential oracle in the package tests), while the engine exploits the
// explicit deps for overlap.
type step struct {
	kind   stepKind
	peer   int // send dest / recv src / sendrecv dest
	peer2  int // sendrecv src
	tagOff int // effective tag = baseTag - tagOff; 0..tagWindow-1
	a, b   bufRef
	count  int   // reduce: element count
	deps   []int // indices of steps that must complete before this one
}

// tagWindow is the width of the per-collective tag window every schedule
// must fit in (mpi.Comm.nextCollTag hands out windows of this size).
const tagWindow = 16

// Schedule is a compiled collective for one rank: the step DAG plus the
// successor lists and staging size the executors need. Schedules are
// immutable after compile and safely shared across bindings.
type Schedule struct {
	steps []step
	succ  [][]int32 // succ[i] = steps that list i as a dependency
	ndep  []int32   // ndep[i] = len(steps[i].deps)
	roots []int32   // steps with no dependencies (engine seed set)
	stage int       // staging arena bytes
}

// Steps returns the number of steps in the schedule (CollStats reporting).
func (s *Schedule) Steps() int { return len(s.steps) }

// StageBytes returns the staging arena size the schedule requires.
func (s *Schedule) StageBytes() int { return s.stage }

// builder accumulates steps during emission. Every emit helper returns the
// new step's index so emitters can express data dependencies explicitly; on
// top of those, the builder automatically chains steps that talk to the
// same (peer, tag, direction), preserving the point-to-point matching order
// the sequential algorithms relied on.
type builder struct {
	steps []step
	stage int
	// last send/recv step per (peer, tagOff, direction): implicit ordering.
	lastSend map[int64]int
	lastRecv map[int64]int
	// fenceDeps are the sink steps recorded by the last fence(): every step
	// added afterwards depends on them (phase composition).
	fenceDeps []int
	// ranks maps builder-local ranks to communicator ranks (hierarchical
	// emitters compose flat emitters over a subgroup view); nil = identity.
	ranks []int
	// tagShift is added to every tag offset emitted through this view, so
	// composed phases occupy disjoint sub-ranges of the collective window.
	tagShift int
	// base points a view at the root builder owning the step list; nil on
	// the root itself.
	base *builder
}

func newBuilder() *builder {
	return &builder{lastSend: make(map[int64]int), lastRecv: make(map[int64]int)}
}

// view returns a builder facade whose peers are translated through ranks
// (rank i of the view is rank ranks[i] of b; nil keeps b's rank space) and
// whose tag offsets are shifted by tagShift. The view shares the underlying
// step list, staging arena, ordering maps, and fences.
func (b *builder) view(ranks []int, tagShift int) *builder {
	parent := b.ranks
	mapped := ranks
	if mapped == nil {
		mapped = parent
	} else if parent != nil {
		mapped = make([]int, len(ranks))
		for i, r := range ranks {
			mapped[i] = parent[r]
		}
	}
	return &builder{ranks: mapped, tagShift: b.tagShift + tagShift, base: b.baseOf()}
}

// shift returns an identity view with its tag offsets shifted.
func (b *builder) shift(tagShift int) *builder { return b.view(nil, tagShift) }

// fence makes every subsequently added step depend on the completion of all
// steps added so far: the local program-order barrier between the phases of
// a composed schedule (reduce→bcast, intra→inter→intra). Only the current
// sink steps are recorded; earlier steps are covered transitively.
func (b *builder) fence() {
	base := b.baseOf()
	hasSucc := make([]bool, len(base.steps))
	for i := range base.steps {
		for _, d := range base.steps[i].deps {
			hasSucc[d] = true
		}
	}
	base.fenceDeps = base.fenceDeps[:0]
	for i := range base.steps {
		if !hasSucc[i] {
			base.fenceDeps = append(base.fenceDeps, i)
		}
	}
}

func (b *builder) baseOf() *builder {
	if b.base != nil {
		return b.base
	}
	return b
}

func (b *builder) translate(peer int) int {
	if b.ranks != nil {
		return b.ranks[peer]
	}
	return peer
}

// alloc reserves n staging bytes and returns their ref.
func (b *builder) alloc(n int) bufRef {
	base := b.baseOf()
	ref := bufRef{kind: bufStage, off: base.stage, n: n}
	base.stage += n
	return ref
}

func chanKey(peer, tagOff int) int64 { return int64(peer)<<16 | int64(tagOff) }

// add appends a step, wiring the explicit deps plus the implicit
// same-channel ordering edge, and returns its index.
func (b *builder) add(s step, deps ...int) int {
	base := b.baseOf()
	id := len(base.steps)
	s.deps = append(s.deps, deps...)
	s.deps = append(s.deps, base.fenceDeps...)
	switch s.kind {
	case stepSend:
		k := chanKey(s.peer, s.tagOff)
		if prev, ok := base.lastSend[k]; ok {
			s.deps = append(s.deps, prev)
		}
		base.lastSend[k] = id
	case stepRecv:
		k := chanKey(s.peer, s.tagOff)
		if prev, ok := base.lastRecv[k]; ok {
			s.deps = append(s.deps, prev)
		}
		base.lastRecv[k] = id
	case stepSendrecv:
		ks := chanKey(s.peer, s.tagOff)
		kr := chanKey(s.peer2, s.tagOff)
		if prev, ok := base.lastSend[ks]; ok {
			s.deps = append(s.deps, prev)
		}
		if prev, ok := base.lastRecv[kr]; ok && !containsDep(s.deps, prev) {
			s.deps = append(s.deps, prev)
		}
		base.lastSend[ks] = id
		base.lastRecv[kr] = id
	}
	s.deps = dedupDeps(s.deps)
	base.steps = append(base.steps, s)
	return id
}

func containsDep(deps []int, d int) bool {
	for _, x := range deps {
		if x == d {
			return true
		}
	}
	return false
}

func dedupDeps(deps []int) []int {
	out := deps[:0]
	for _, d := range deps {
		if !containsDep(out, d) {
			out = append(out, d)
		}
	}
	return out
}

// send emits "send buf to dest at tag base-tagOff" and returns the step id.
func (b *builder) send(buf bufRef, dest, tagOff int, deps ...int) int {
	return b.add(step{kind: stepSend, peer: b.translate(dest), tagOff: tagOff + b.tagShift, a: buf}, deps...)
}

// recv emits "receive into buf from src at tag base-tagOff".
func (b *builder) recv(buf bufRef, src, tagOff int, deps ...int) int {
	return b.add(step{kind: stepRecv, peer: b.translate(src), tagOff: tagOff + b.tagShift, a: buf}, deps...)
}

// sendrecv emits a combined exchange: send sbuf to dest, receive into rbuf
// from src, both at tag base-tagOff.
func (b *builder) sendrecv(sbuf bufRef, dest int, rbuf bufRef, src, tagOff int, deps ...int) int {
	return b.add(step{kind: stepSendrecv, peer: b.translate(dest), peer2: b.translate(src),
		tagOff: tagOff + b.tagShift, a: sbuf, b: rbuf}, deps...)
}

// reduce emits "inout = rf(inout, in)" over count elements.
func (b *builder) reduce(inout, in bufRef, count int, deps ...int) int {
	return b.add(step{kind: stepReduce, a: inout, b: in, count: count}, deps...)
}

// copyStep emits "copy src into dst".
func (b *builder) copyStep(dst, src bufRef, deps ...int) int {
	return b.add(step{kind: stepCopy, a: dst, b: src}, deps...)
}

// compile freezes the builder into an executable schedule, validating the
// DAG invariants: deps point backwards (acyclic by construction) and tag
// offsets stay inside the collective window.
func (b *builder) compile() (*Schedule, error) {
	base := b.baseOf()
	s := &Schedule{steps: base.steps, stage: base.stage}
	s.succ = make([][]int32, len(s.steps))
	s.ndep = make([]int32, len(s.steps))
	for i := range s.steps {
		st := &s.steps[i]
		if st.tagOff < 0 || st.tagOff >= tagWindow {
			return nil, fmt.Errorf("coll: step %d (%s) tag offset %d outside the %d-tag window", i, st.kind, st.tagOff, tagWindow)
		}
		for _, d := range st.deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("coll: step %d (%s) depends on step %d (not an earlier step)", i, st.kind, d)
			}
			s.succ[d] = append(s.succ[d], int32(i))
		}
		s.ndep[i] = int32(len(st.deps))
		if len(st.deps) == 0 {
			s.roots = append(s.roots, int32(i))
		}
	}
	return s, nil
}

// binding resolves a schedule's symbolic buffers for one execution: the
// caller's send/recv buffers, the staging arena, the reduction function,
// and the concrete base tag. Bindings are cheap; persistent collectives
// keep one alive across Starts so the staging arena is allocated exactly
// once.
type binding struct {
	send, recv []byte
	stage      []byte
	rf         ReduceFunc
	baseTag    int
}

func (bind *binding) resolve(ref bufRef) []byte {
	switch ref.kind {
	case bufSend:
		return bind.send[ref.off : ref.off+ref.n]
	case bufRecv:
		return bind.recv[ref.off : ref.off+ref.n]
	case bufStage:
		return bind.stage[ref.off : ref.off+ref.n]
	}
	return nil
}
