package coll

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// memNet is an in-memory full mesh with MPI point-to-point semantics:
// per-(src, dst) FIFO ordering, buffered sends, and blocking recv. It is the
// transport of the sequential oracle (runDirect); the nbMesh in
// mesh_test.go carries the DAG engine.
type memMsg struct {
	tag  int
	data []byte
}

type memNet struct {
	chans [][]chan memMsg
}

func newMemNet(size int) *memNet {
	n := &memNet{chans: make([][]chan memMsg, size)}
	for i := range n.chans {
		n.chans[i] = make([]chan memMsg, size)
		for j := range n.chans[i] {
			n.chans[i][j] = make(chan memMsg, 4096)
		}
	}
	return n
}

type memT struct {
	net  *memNet
	rank int
}

func (m memT) Rank() int { return m.rank }
func (m memT) Size() int { return len(m.net.chans) }

func (m memT) Send(buf []byte, dest, tag int) error {
	m.net.chans[m.rank][dest] <- memMsg{tag: tag, data: append([]byte(nil), buf...)}
	return nil
}

func (m memT) Recv(buf []byte, src, tag int) error {
	msg := <-m.net.chans[src][m.rank]
	if msg.tag != tag {
		return fmt.Errorf("rank %d: recv from %d got tag %d, want %d", m.rank, src, msg.tag, tag)
	}
	if len(msg.data) != len(buf) {
		return fmt.Errorf("rank %d: recv from %d got %d bytes, want %d", m.rank, src, len(msg.data), len(buf))
	}
	copy(buf, msg.data)
	return nil
}

func (m memT) Sendrecv(sendBuf []byte, dest int, recvBuf []byte, src, tag int) error {
	if err := m.Send(sendBuf, dest, tag); err != nil {
		return err
	}
	return m.Recv(recvBuf, src, tag)
}

// runDirect is the sequential oracle: it walks the schedule's steps in
// emission order with blocking calls. Emission order is a valid sequential
// execution (deps always point backwards), so this reproduces the
// pre-schedule blocking algorithms exactly and checks the engine's
// dependency-driven overlap against them.
func runDirect(t memT, s *Schedule, bind *binding) error {
	for i := range s.steps {
		st := &s.steps[i]
		switch st.kind {
		case stepSend:
			if err := t.Send(bind.resolve(st.a), st.peer, bind.baseTag-st.tagOff); err != nil {
				return err
			}
		case stepRecv:
			if err := t.Recv(bind.resolve(st.a), st.peer, bind.baseTag-st.tagOff); err != nil {
				return err
			}
		case stepSendrecv:
			if err := t.Sendrecv(bind.resolve(st.a), st.peer, bind.resolve(st.b), st.peer2, bind.baseTag-st.tagOff); err != nil {
				return err
			}
		case stepReduce:
			if err := bind.rf(bind.resolve(st.a), bind.resolve(st.b), st.count); err != nil {
				return err
			}
		case stepCopy:
			copy(bind.resolve(st.a), bind.resolve(st.b))
		}
	}
	return nil
}

// execModes names the two schedule executors every algorithm test runs
// under: the sequential oracle and the DAG engine.
var execModes = []string{"oracle", "engine"}

// rankEnv is one rank's view in the algorithm tests: its transport (memT
// under the oracle, *nbMeshRank under the engine) and the placement map.
type rankEnv struct {
	T interface {
		Rank() int
		Size() int
	}
	Nodes []int
}

// runRanks runs fn once per rank over a fresh mesh — buffered-channel memT
// for the oracle, nbMesh for the engine — and fails on any error.
func runRanks(t *testing.T, mode string, size int, nodes []int, fn func(e rankEnv) error) {
	t.Helper()
	var envOf func(r int) rankEnv
	switch mode {
	case "oracle":
		net := newMemNet(size)
		envOf = func(r int) rankEnv { return rankEnv{T: memT{net: net, rank: r}, Nodes: nodes} }
	case "engine":
		mesh := newNBMesh(size)
		envOf = func(r int) rankEnv { return rankEnv{T: mesh.Rank(r), Nodes: nodes} }
	default:
		t.Fatalf("unknown exec mode %q", mode)
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(envOf(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("mode %s size %d rank %d: %v", mode, size, r, err)
		}
	}
}

// runOp compiles the schedule for one call shape on this rank and executes
// it under the selected executor — the per-rank body of every algorithm
// test. Algorithms run exclusively through emitted schedules.
func runOp(e rankEnv, mode string, key schedKey, bind binding) error {
	sh := Shape{Rank: e.T.Rank(), Size: e.T.Size(), Nodes: e.Nodes}
	b := newBuilder()
	if err := emitFor(b, sh, key); err != nil {
		return err
	}
	s, err := b.compile()
	if err != nil {
		return err
	}
	bind.stage = make([]byte, s.stage)
	if mode == "engine" {
		return run(e.T.(Transport), s, &bind, newExecState(s))
	}
	return runDirect(e.T.(memT), s, &bind)
}

// nodeMaps yields placement maps to exercise: unknown placement, a single
// node, an even two-node split, and an irregular three-node layout.
func nodeMaps(size int) [][]int {
	single := make([]int, size)
	split := make([]int, size)
	irregular := make([]int, size)
	for i := 0; i < size; i++ {
		split[i] = i * 2 / size
		irregular[i] = i % 3
	}
	return [][]int{nil, single, split, irregular}
}

// sumI64 adds count little-endian int64s: exact and commutative.
func sumI64(inout, in []byte, count int) error {
	for i := 0; i < count; i++ {
		a := binary.LittleEndian.Uint64(inout[i*8:])
		b := binary.LittleEndian.Uint64(in[i*8:])
		binary.LittleEndian.PutUint64(inout[i*8:], a+b)
	}
	return nil
}

// affine composes per-element affine maps x -> a*x+b stored as (a, b)
// uint64 pairs: left ∘ right = (a1*a2, a1*b2+b1). Associative (wrapping
// ring arithmetic) but not commutative — a bracketing-order detector.
func affine(inout, in []byte, count int) error {
	for i := 0; i < count; i++ {
		a1 := binary.LittleEndian.Uint64(inout[i*16:])
		b1 := binary.LittleEndian.Uint64(inout[i*16+8:])
		a2 := binary.LittleEndian.Uint64(in[i*16:])
		b2 := binary.LittleEndian.Uint64(in[i*16+8:])
		binary.LittleEndian.PutUint64(inout[i*16:], a1*a2)
		binary.LittleEndian.PutUint64(inout[i*16+8:], a1*b2+b1)
	}
	return nil
}

// rankInput builds a deterministic per-rank payload: element i of rank r
// is distinct across both.
func rankInput(rank, count, elt int) []byte {
	buf := make([]byte, count*elt)
	for i := range buf {
		buf[i] = byte(rank*131 + i*7 + 1)
	}
	return buf
}

// refFold left-folds the inputs of ranks root, root+1, ..., root-1 — the
// rotated vrank bracketing the tree reductions document.
func refFold(t *testing.T, rf ReduceFunc, size, root, count, elt int, input func(rank int) []byte) []byte {
	t.Helper()
	acc := append([]byte(nil), input(root)...)
	for v := 1; v < size; v++ {
		if err := rf(acc, input((root+v)%size), count); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 11, 13, 16}

func TestBarrierAlgorithms(t *testing.T) {
	for _, mode := range execModes {
		for _, algo := range Algorithms(Barrier) {
			for _, size := range testSizes {
				for _, nodes := range nodeMaps(size) {
					runRanks(t, mode, size, nodes, func(e rankEnv) error {
						return runOp(e, mode, schedKey{op: Barrier, algo: algo}, binding{baseTag: -16})
					})
				}
			}
		}
	}
}

func TestBcastAlgorithms(t *testing.T) {
	for _, mode := range execModes {
		for _, algo := range Algorithms(Bcast) {
			for _, size := range testSizes {
				for _, n := range []int{0, 1, 37, 9000} { // 9000 spans two pipeline segments
					for _, root := range []int{0, size - 1, size / 2} {
						want := rankInput(root, n, 1)
						for _, nodes := range nodeMaps(size) {
							bufs := make([][]byte, size)
							for r := range bufs {
								if r == root {
									bufs[r] = append([]byte(nil), want...)
								} else {
									bufs[r] = make([]byte, n)
								}
							}
							runRanks(t, mode, size, nodes, func(e rankEnv) error {
								return runOp(e, mode,
									schedKey{op: Bcast, algo: algo, bytes: n, root: root},
									binding{recv: bufs[e.T.Rank()], baseTag: -16})
							})
							for r := range bufs {
								if !bytes.Equal(bufs[r], want) {
									t.Fatalf("%s/%s size=%d n=%d root=%d rank=%d: bad payload", mode, algo, size, n, root, r)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestReduceAlgorithms(t *testing.T) {
	cases := []struct {
		name string
		rf   ReduceFunc
		elt  int
	}{
		{"sum", sumI64, 8},
		{"affine", affine, 16}, // non-commutative: checks bracketing order
	}
	for _, mode := range execModes {
		for _, algo := range Algorithms(Reduce) {
			for _, tc := range cases {
				for _, size := range testSizes {
					for _, count := range []int{0, 1, 3, 700} {
						for _, root := range []int{0, size - 1} {
							input := func(r int) []byte { return rankInput(r, count, tc.elt) }
							want := refFold(t, tc.rf, size, root, count, tc.elt, input)
							recv := make([][]byte, size)
							for r := range recv {
								recv[r] = make([]byte, count*tc.elt)
							}
							runRanks(t, mode, size, nil, func(e rankEnv) error {
								r := e.T.Rank()
								return runOp(e, mode,
									schedKey{op: Reduce, algo: algo, count: count, elt: tc.elt, root: root},
									binding{send: input(r), recv: recv[r], rf: tc.rf, baseTag: -16})
							})
							if !bytes.Equal(recv[root], want) {
								t.Fatalf("%s/%s/%s size=%d count=%d root=%d: bad result", mode, algo, tc.name, size, count, root)
							}
						}
					}
				}
			}
		}
	}
}

func TestAllreduceAlgorithms(t *testing.T) {
	for _, mode := range execModes {
		for _, algo := range Algorithms(Allreduce) {
			cases := []struct {
				name string
				rf   ReduceFunc
				elt  int
			}{{"sum", sumI64, 8}}
			if !reordering[algo] {
				cases = append(cases, struct {
					name string
					rf   ReduceFunc
					elt  int
				}{"affine", affine, 16})
			}
			for _, tc := range cases {
				for _, size := range testSizes {
					for _, count := range []int{0, 1, 3, 700} {
						input := func(r int) []byte { return rankInput(r, count, tc.elt) }
						want := refFold(t, tc.rf, size, 0, count, tc.elt, input)
						for _, nodes := range nodeMaps(size) {
							recv := make([][]byte, size)
							for r := range recv {
								recv[r] = make([]byte, count*tc.elt)
							}
							runRanks(t, mode, size, nodes, func(e rankEnv) error {
								r := e.T.Rank()
								return runOp(e, mode,
									schedKey{op: Allreduce, algo: algo, count: count, elt: tc.elt},
									binding{send: input(r), recv: recv[r], rf: tc.rf, baseTag: -16})
							})
							for r := range recv {
								if !bytes.Equal(recv[r], want) {
									t.Fatalf("%s/%s/%s size=%d count=%d rank=%d: bad result", mode, algo, tc.name, size, count, r)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestAllgatherAlgorithms(t *testing.T) {
	for _, mode := range execModes {
		for _, algo := range Algorithms(Allgather) {
			for _, size := range testSizes {
				for _, blk := range []int{0, 1, 37, 5600} {
					var want []byte
					for r := 0; r < size; r++ {
						want = append(want, rankInput(r, blk, 1)...)
					}
					recv := make([][]byte, size)
					for r := range recv {
						recv[r] = make([]byte, size*blk)
					}
					runRanks(t, mode, size, nil, func(e rankEnv) error {
						r := e.T.Rank()
						return runOp(e, mode,
							schedKey{op: Allgather, algo: algo, bytes: blk},
							binding{send: rankInput(r, blk, 1), recv: recv[r], baseTag: -16})
					})
					for r := range recv {
						if !bytes.Equal(recv[r], want) {
							t.Fatalf("%s/%s size=%d blk=%d rank=%d: bad result", mode, algo, size, blk, r)
						}
					}
				}
			}
		}
	}
}

func TestAlltoallAlgorithms(t *testing.T) {
	for _, mode := range execModes {
		for _, algo := range Algorithms(Alltoall) {
			for _, size := range testSizes {
				for _, blk := range []int{0, 1, 37, 1200} {
					// sendBufs[r] block d is destined for rank d.
					sendBufs := make([][]byte, size)
					for r := range sendBufs {
						sendBufs[r] = make([]byte, size*blk)
						for d := 0; d < size; d++ {
							copy(sendBufs[r][d*blk:], rankInput(r*size+d, blk, 1))
						}
					}
					recv := make([][]byte, size)
					for r := range recv {
						recv[r] = make([]byte, size*blk)
					}
					runRanks(t, mode, size, nil, func(e rankEnv) error {
						r := e.T.Rank()
						return runOp(e, mode,
							schedKey{op: Alltoall, algo: algo, bytes: blk},
							binding{send: sendBufs[r], recv: recv[r], baseTag: -16})
					})
					for r := 0; r < size; r++ {
						for s := 0; s < size; s++ {
							got := recv[r][s*blk : (s+1)*blk]
							want := sendBufs[s][r*blk : (r+1)*blk]
							if !bytes.Equal(got, want) {
								t.Fatalf("%s/%s size=%d blk=%d: rank %d block from %d wrong", mode, algo, size, blk, r, s)
							}
						}
					}
				}
			}
		}
	}
}

// TestScheduleEquivalence is the engine-vs-oracle property: for every
// allreduce algorithm, the DAG engine's output is byte-identical to the
// sequential oracle's (which reproduces the pre-schedule blocking path step
// for step).
func TestScheduleEquivalence(t *testing.T) {
	type result struct{ bufs [][]byte }
	collect := func(mode string, op Op, algo string, size, count, elt int, rf ReduceFunc) [][]byte {
		input := func(r int) []byte { return rankInput(r, count, elt) }
		recv := make([][]byte, size)
		for r := range recv {
			recv[r] = make([]byte, count*elt)
		}
		runRanks(t, mode, size, nil, func(e rankEnv) error {
			r := e.T.Rank()
			return runOp(e, mode,
				schedKey{op: op, algo: algo, count: count, elt: elt},
				binding{send: input(r), recv: recv[r], rf: rf, baseTag: -16})
		})
		return recv
	}
	for _, algo := range Algorithms(Allreduce) {
		for _, size := range []int{1, 5, 8, 13} {
			for _, count := range []int{1, 700} {
				oracle := result{collect("oracle", Allreduce, algo, size, count, 8, sumI64)}
				engine := result{collect("engine", Allreduce, algo, size, count, 8, sumI64)}
				for r := 0; r < size; r++ {
					if !bytes.Equal(oracle.bufs[r], engine.bufs[r]) {
						t.Fatalf("allreduce/%s size=%d count=%d rank=%d: engine diverges from the sequential oracle", algo, size, count, r)
					}
				}
			}
		}
	}
}

// TestModuleDispatch drives the full pick→schedule→record→execute path
// through a Module on the in-memory mesh and checks the counters, including
// the per-op step counts.
func TestModuleDispatch(t *testing.T) {
	fw, err := NewFramework([]string{"hier", "tuned", "basic"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := 6
	nodes := []int{0, 0, 0, 1, 1, 1}
	mesh := newNBMesh(size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := fw.NewModule(mesh.Rank(r), nodes, "test")
			if errs[r] = m.Barrier(-16); errs[r] != nil {
				return
			}
			buf := rankInput(0, 64, 1)
			if errs[r] = m.Bcast(buf, 0, -32); errs[r] != nil {
				return
			}
			in := rankInput(r, 4, 8)
			out := make([]byte, 32)
			errs[r] = m.Allreduce(in, out, 4, 8, sumI64, true, -48)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	snap := fw.Snapshot()
	for _, key := range []string{"barrier/hier", "bcast/hier", "allreduce/hier"} {
		if snap[key] != uint64(size) {
			t.Fatalf("snapshot[%s] = %d, want %d (full: %v)", key, snap[key], size, snap)
		}
	}
	for _, key := range []string{"steps/barrier", "steps/bcast", "steps/allreduce"} {
		if snap[key] == 0 {
			t.Fatalf("snapshot[%s] = 0, want > 0 (full: %v)", key, snap)
		}
	}
}

// TestModuleScheduleCache checks that repeated same-shape dispatch through
// one Module reuses the compiled schedule and counts the hits.
func TestModuleScheduleCache(t *testing.T) {
	fw, err := NewFramework([]string{"basic"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := 4
	mesh := newNBMesh(size)
	const iters = 5
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := fw.NewModule(mesh.Rank(r), nil, "cache")
			in := rankInput(r, 8, 8)
			out := make([]byte, 64)
			for i := 0; i < iters; i++ {
				if err := m.Allreduce(in, out, 8, 8, sumI64, true, -16); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	snap := fw.Snapshot()
	wantHits := uint64(size * (iters - 1))
	if snap["schedule_cache_hits"] != wantHits {
		t.Fatalf("schedule_cache_hits = %d, want %d", snap["schedule_cache_hits"], wantHits)
	}
}

// TestPersistentExec binds one allreduce Exec per rank and runs it
// repeatedly: results must be correct every iteration and the
// persistent-start counter must add up.
func TestPersistentExec(t *testing.T) {
	fw, err := NewFramework([]string{"tuned", "basic"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := 5
	const iters = 4
	mesh := newNBMesh(size)
	count := 16
	input := func(r int) []byte { return rankInput(r, count, 8) }
	want := refFold(t, sumI64, size, 0, count, 8, input)
	outs := make([][]byte, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		outs[r] = make([]byte, count*8)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := fw.NewModule(mesh.Rank(r), nil, "persist")
			ex, err := m.PrepareAllreduce(input(r), outs[r], count, 8, sumI64, true, -16)
			if err != nil {
				errs[r] = err
				return
			}
			for i := 0; i < iters; i++ {
				if err := ex.Run(); err != nil {
					errs[r] = err
					return
				}
				if !bytes.Equal(outs[r], want) {
					errs[r] = fmt.Errorf("iteration %d: bad result", i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	snap := fw.Snapshot()
	if got, want := snap["persistent_starts"], uint64(size*iters); got != want {
		t.Fatalf("persistent_starts = %d, want %d", got, want)
	}
}
