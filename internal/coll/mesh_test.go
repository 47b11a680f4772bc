package coll

import "sync"

// nbOp is one outstanding mesh operation: a pooled record that doubles as
// the Req handle. After completion has been observed through Wait or Test
// the record returns to its owner's freelist (the engine drops spent
// handles by contract).
type nbOp struct {
	buf      []byte
	src, tag int
	done     bool
	next     *nbOp
	box      *nbMailbox
	owner    *nbMeshRank
}

// opList is an intrusive FIFO of operations.
type opList struct{ head, tail *nbOp }

func (l *opList) push(o *nbOp) {
	o.next = nil
	if l.tail == nil {
		l.head, l.tail = o, o
	} else {
		l.tail.next = o
		l.tail = o
	}
}

// takeMatch removes and returns the first operation matching (src, tag),
// preserving per-(src, tag) FIFO order.
func (l *opList) takeMatch(src, tag int) *nbOp {
	var prev *nbOp
	for o := l.head; o != nil; prev, o = o, o.next {
		if o.src == src && o.tag == tag {
			if prev == nil {
				l.head = o.next
			} else {
				prev.next = o.next
			}
			if l.tail == o {
				l.tail = prev
			}
			o.next = nil
			return o
		}
	}
	return nil
}

// nbMailbox is one receiver's matcher: posted receives and unmatched sends
// rendezvous here under a single lock.
type nbMailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	recvs opList // posted receives
	sends opList // unmatched sends (src = sender rank)
}

// nbMesh is an in-memory full mesh implementing Transport with zero
// steady-state allocation — the engine's transport in the package tests and
// the persistent-collective benchmark. Sends complete at match time (rendezvous
// semantics), so payloads move exactly once, directly between the caller
// buffers, with no intermediate copies or buffering. Every emitted
// schedule is synchronous-send safe — the textbook-MPI correctness
// requirement — so the stricter completion rule costs nothing.
type nbMesh struct {
	boxes []nbMailbox
	ranks []nbMeshRank
}

// newNBMesh builds a mesh of size members.
func newNBMesh(size int) *nbMesh {
	m := &nbMesh{boxes: make([]nbMailbox, size), ranks: make([]nbMeshRank, size)}
	for i := range m.boxes {
		m.boxes[i].cond = sync.NewCond(&m.boxes[i].mu)
	}
	for i := range m.ranks {
		m.ranks[i] = nbMeshRank{mesh: m, rank: i}
	}
	return m
}

// Rank returns member r's transport endpoint.
func (m *nbMesh) Rank(r int) *nbMeshRank { return &m.ranks[r] }

// nbMeshRank is one member's endpoint. The freelist is touched only by
// this rank's executor goroutine, so it needs no lock.
type nbMeshRank struct {
	mesh *nbMesh
	rank int
	free *nbOp
}

func (t *nbMeshRank) get(buf []byte, src, tag int, box *nbMailbox) *nbOp {
	o := t.free
	if o == nil {
		o = &nbOp{}
	} else {
		t.free = o.next
	}
	o.buf, o.src, o.tag = buf, src, tag
	o.done, o.next, o.box, o.owner = false, nil, box, t
	return o
}

func (t *nbMeshRank) put(o *nbOp) {
	o.buf = nil
	o.box = nil
	o.next = t.free
	t.free = o
}

// Rank implements Transport.
func (t *nbMeshRank) Rank() int { return t.rank }

// Size implements Transport.
func (t *nbMeshRank) Size() int { return len(t.mesh.ranks) }

// Isend starts a nonblocking send to dest.
func (t *nbMeshRank) Isend(buf []byte, dest, tag int) (Req, error) {
	box := &t.mesh.boxes[dest]
	o := t.get(buf, t.rank, tag, box)
	box.mu.Lock()
	if r := box.recvs.takeMatch(t.rank, tag); r != nil {
		copy(r.buf, buf)
		r.done = true
		o.done = true
		box.cond.Broadcast()
	} else {
		box.sends.push(o)
	}
	box.mu.Unlock()
	return o, nil
}

// Irecv starts a nonblocking receive from src.
func (t *nbMeshRank) Irecv(buf []byte, src, tag int) (Req, error) {
	box := &t.mesh.boxes[t.rank]
	o := t.get(buf, src, tag, box)
	box.mu.Lock()
	if s := box.sends.takeMatch(src, tag); s != nil {
		copy(buf, s.buf)
		s.done = true
		o.done = true
		box.cond.Broadcast()
	} else {
		box.recvs.push(o)
	}
	box.mu.Unlock()
	return o, nil
}

// Wait blocks until the operation completes and recycles the record.
func (o *nbOp) Wait() error {
	box := o.box
	box.mu.Lock()
	for !o.done {
		box.cond.Wait()
	}
	box.mu.Unlock()
	o.owner.put(o)
	return nil
}

// Test polls for completion, recycling the record once it reports done.
func (o *nbOp) Test() (bool, error) {
	box := o.box
	box.mu.Lock()
	done := o.done
	box.mu.Unlock()
	if done {
		o.owner.put(o)
	}
	return done, nil
}
