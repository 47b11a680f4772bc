package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gompi/internal/core"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

// shape is where a workload's ranks live and which transports they use.
type shape struct {
	nodes, ppn int
	btl        string // core.Config.BTL selection; "" lets the PML pick sm/net
}

func (s shape) np() int { return s.nodes * s.ppn }

func (s shape) options() runtime.Options {
	return runtime.Options{
		Cluster: topo.New(topo.Loopback(s.ppn), s.nodes),
		PPN:     s.ppn,
		Config: core.Config{
			CIDMode: core.CIDExtended,
			BTL:     s.btl,
			// A lost message would otherwise hold a runtime collective for
			// the 60 s default; fail it well inside one run instead.
			Timeout: 20 * time.Second,
		},
	}
}

// tally counts every call into the program and every call that returned an
// error or a wrong output. A failed call is recorded, never fatal: the rank
// that saw it stops its kernel and the run reports it.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64

	mu    sync.Mutex
	first string
}

// call counts one call and its error; it reports whether the call succeeded.
func (t *tally) call(what string, err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	t.note(fmt.Sprintf("%s: %v", what, err))
	return false
}

// fail records a failed call whose attempt the caller counts in bulk; hot
// kernels use it so the success path costs no shared-counter update.
func (t *tally) fail(what string, err error) bool {
	t.failed.Add(1)
	t.note(fmt.Sprintf("%s: %v", what, err))
	return false
}

// wrongf records a wrong output of a call already counted. Callers test the
// output first, so the success path formats nothing.
func (t *tally) wrongf(format string, args ...any) bool {
	t.failed.Add(1)
	t.wrong.Add(1)
	t.note(fmt.Sprintf(format, args...))
	return false
}

func (t *tally) note(msg string) {
	t.mu.Lock()
	if t.first == "" {
		t.first = msg
	}
	t.mu.Unlock()
}

func (t *tally) firstError() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

// gate is the harness's own barrier between blocks of timed operations. It
// runs outside every timed region and decides, identically for all ranks,
// whether a kernel has used up its time, so every rank performs the same
// number of collective operations.
type gate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	arrived  int
	gen      uint64
	decision bool
	aborted  bool
	budget   time.Duration
	deadline time.Time
}

func newGate(n int, budget time.Duration) *gate {
	g := &gate{n: n, budget: budget}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// await is the barrier. The last rank to arrive runs decide and every rank
// returns its answer; after abort every rank returns true at once.
func (g *gate) await(decide func() bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.aborted {
		return true
	}
	gen := g.gen
	g.arrived++
	if g.arrived == g.n {
		g.arrived = 0
		g.gen++
		g.decision = decide != nil && decide()
		g.cond.Broadcast()
		return g.decision
	}
	for gen == g.gen && !g.aborted {
		g.cond.Wait()
	}
	// No later generation can complete before this rank arrives again, so
	// decision still holds this generation's answer.
	return g.aborted || g.decision
}

// begin waits for every rank and starts the time budget.
func (g *gate) begin() bool {
	return g.await(func() bool { g.deadline = time.Now().Add(g.budget); return false })
}

// next waits for every rank to finish its block and reports whether the
// budget is used up.
func (g *gate) next() bool { return g.until(g.deadline) }

// until waits for every rank and reports whether end has passed.
func (g *gate) until(end time.Time) bool {
	return g.await(func() bool { return time.Now().After(end) })
}

// sync is a plain barrier.
func (g *gate) sync() { g.await(nil) }

// abort releases every waiting rank with stop set; a rank whose call failed
// uses it so its peers do not wait at the gate for a block it never ends.
func (g *gate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// isAborted reports whether a rank gave up on the region.
func (g *gate) isAborted() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.aborted
}

// series collects per-rank durations of the same numbered operation; an
// operation's time is the maximum over its ranks.
type series struct {
	perRank [][]time.Duration
}

func newSeries(np int) *series {
	return &series{perRank: make([][]time.Duration, np)}
}

func (s *series) add(rank int, d time.Duration) {
	s.perRank[rank] = append(s.perRank[rank], d)
}

// maxOverRanks returns one sample per operation that every rank completed.
func (s *series) maxOverRanks() []float64 {
	n := -1
	for _, r := range s.perRank {
		if n < 0 || len(r) < n {
			n = len(r)
		}
	}
	out := make([]float64, 0, max(n, 0))
	for i := 0; i < n; i++ {
		var m time.Duration
		for _, r := range s.perRank {
			m = max(m, r[i])
		}
		out = append(out, float64(m))
	}
	return out
}

// quantile returns the q-quantile (nearest rank) of xs, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func usOf(ns float64) float64 { return ns / 1e3 }

// inputs derives every input a workload hands the program from one seed:
// payload bytes, the collective mix order, the stream sequence stamp mask
// and the communicator tags.
type inputs struct {
	rng *rand.Rand
}

func newInputs(seed int64) *inputs {
	return &inputs{rng: rand.New(rand.NewSource(seed))}
}

func (in *inputs) bytes(n int) []byte {
	b := make([]byte, n)
	in.rng.Read(b)
	return b
}

func (in *inputs) tag(prefix string) string {
	return fmt.Sprintf("%s-%08x", prefix, in.rng.Uint32())
}

func (in *inputs) mask() uint64 { return in.rng.Uint64() }

// stamp writes a stream message's sequence number, masked by the seed, into
// its first eight bytes; unstamp reads it back.
func stamp(buf []byte, seq, mask uint64) { binary.LittleEndian.PutUint64(buf, seq^mask) }

func unstamp(buf []byte, mask uint64) uint64 { return binary.LittleEndian.Uint64(buf) ^ mask }

// startup is one rank's working communicator, built the way every
// workload starts: SessionInit → GroupFromPset(mpi://world) →
// CommCreateFromGroup → one 8 B ring exchange over the new communicator.
type startup struct {
	sess  *mpi.Session
	world *mpi.Group
	comm  *mpi.Comm
}

// phases are the per-rank durations of one startup or one churn cycle,
// which run back to back from at.
type phases struct {
	at                                                    time.Time
	sessionInit, groupFromPset, commCreate, firstExchange time.Duration
	dup, free, finalize                                   time.Duration
}

// open runs the startup sequence on one rank and checks that the new
// communicator matches mpi://world. ready, when non-nil, is called as soon
// as the rank holds its communicator.
func open(p *mpi.Process, t *tally, tag string, token []byte, ph *phases, ready func()) (*startup, bool) {
	t0 := time.Now()
	sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
	if !t.call("SessionInit", err) {
		return nil, false
	}
	t1 := time.Now()
	world, err := sess.GroupFromPset(mpi.PsetWorld)
	if !t.call("GroupFromPset", err) {
		sess.Finalize()
		return nil, false
	}
	t2 := time.Now()
	comm, err := sess.CommCreateFromGroup(world, tag, nil, nil)
	if !t.call("CommCreateFromGroup", err) {
		sess.Finalize()
		return nil, false
	}
	t3 := time.Now()
	if ready != nil {
		ready()
	}
	st := &startup{sess: sess, world: world, comm: comm}
	ok := true
	if !sameMembers(comm.Group(), world) || comm.Size() != p.JobSize() {
		ok = t.wrongf("rank %d: communicator %v does not match %s %v",
			p.JobRank(), comm.Group().GlobalRanks(), mpi.PsetWorld, world.GlobalRanks())
	}
	ok = ring(comm, t, token) && ok
	t4 := time.Now()
	if ph != nil {
		ph.at = t0
		ph.sessionInit, ph.groupFromPset, ph.commCreate, ph.firstExchange = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	}
	return st, ok
}

// close frees the communicator and finalizes the session.
func (st *startup) close(t *tally, ph *phases) bool {
	t0 := time.Now()
	ok := t.call("Comm.Free", st.comm.Free())
	t1 := time.Now()
	ok = t.call("Session.Finalize", st.sess.Finalize()) && ok
	if ph != nil {
		ph.free, ph.finalize = t1.Sub(t0), time.Since(t1)
	}
	return ok
}

func sameMembers(a, b *mpi.Group) bool { return slices.Equal(a.GlobalRanks(), b.GlobalRanks()) }

// ringTag is the message tag of the startup ring exchange.
const ringTag = 7

// ring passes token from rank 0 around the communicator and back; rank 0
// checks it came back intact and every rank checks what it forwards.
func ring(c *mpi.Comm, t *tally, token []byte) bool {
	n, r := c.Size(), c.Rank()
	buf := make([]byte, len(token))
	if n == 1 {
		return true
	}
	next, prev := (r+1)%n, (r+n-1)%n
	if r == 0 {
		if !t.call("Send", c.Send(token, next, ringTag)) {
			return false
		}
		_, err := c.Recv(buf, prev, ringTag)
		if !t.call("Recv", err) {
			return false
		}
		return bytes.Equal(buf, token) || t.wrongf("ring token came back as %x, want %x", buf, token)
	}
	_, err := c.Recv(buf, prev, ringTag)
	if !t.call("Recv", err) {
		return false
	}
	ok := bytes.Equal(buf, token) || t.wrongf("rank %d: ring token %x, want %x", r, buf, token)
	return t.call("Send", c.Send(buf, next, ringTag)) && ok
}

// setupLaunchTimes launches the workload's job k times, each time opening
// and closing the working communicator, and returns the launch-to-last-ready
// times. With tr set it also records the startup phases as spans, and with
// c set it adds each launch's counters.
func setupLaunchTimes(sh shape, in *inputs, t *tally, k int, tr *tracer, c *counts) []float64 {
	var out []float64
	token := in.bytes(8)
	for i := 0; i < k; i++ {
		tag := in.tag("setup")
		var before global
		if c != nil {
			before = snapGlobal(nil)
		}
		start := time.Now()
		job, err := runtime.NewJob(sh.options())
		if !t.call("runtime.NewJob", err) {
			continue
		}
		var lastReady, lastEntry atomic.Int64
		err = job.Launch(func(p *mpi.Process) error {
			atomicMax(&lastEntry, int64(time.Since(start)))
			var ph phases
			st, ok := open(p, t, tag, token, &ph, func() { atomicMax(&lastReady, int64(time.Since(start))) })
			if st == nil {
				return nil
			}
			d0 := time.Now()
			dup, err := st.comm.Dup()
			if t.call("Comm.Dup", err) {
				ph.dup = time.Since(d0)
				t.call("Comm.Free", dup.Free())
			}
			if c != nil {
				c.addPMLTotal(p.PMLStatsSnapshot())
			}
			st.close(t, &ph)
			if tr != nil && ok {
				tr.phases(p.JobRank(), int64(i), ph)
			}
			return nil
		})
		t.call("Job.Launch", err)
		if c != nil {
			c.addGlobal(before, snapGlobal(job.Fabric()))
		}
		job.Shutdown()
		if tr != nil {
			tr.add("runtime.launch", -1, int64(i), -1, start, start.Add(time.Duration(lastEntry.Load())))
		}
		if lastReady.Load() > 0 {
			out = append(out, float64(lastReady.Load()))
		}
	}
	return out
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
