package main

import (
	"bytes"
	"time"

	"gompi/mpi"
)

// figure is one end-to-end number a workload reports. key, when set, is
// the name the number carries in the result line (BENCHMARK.json's
// end_to_end list); name is the workload-specific name printed beside it.
type figure struct {
	name, unit, key string
	value           float64
}

// rankCtx is what one rank's kernel works with during one timed region.
type rankCtx struct {
	rank int
	p    *mpi.Process
	comm *mpi.Comm // the working communicator; nil for sessions-churn
	g    *gate
	t    *tally
	tr   *tracer // nil when the region is untraced
	c    *counts // nil when the region takes no counters
	op   opClock // numbers this rank's operations for span op ids
}

// opClock hands out operation ids; every rank counts the same operations
// in the same order, so equal ids name one collective operation.
type opClock struct{ next int64 }

func (o *opClock) tick() int64 { o.next++; return o.next }

// kernel is one workload's timed part for one region: each measurement
// launch of the untraced run, and the untraced and the traced region of the
// traced run, get a kernel of their own. Every kernel runs one warm-up
// block before it records samples, so caches fill and lazy set-up
// (first-message handshakes, schedule compilation, buffer page faults)
// finishes before timing.
type kernel interface {
	// run executes timed blocks on one rank until the gate stops them. It
	// calls begin once its buffers are ready; begin starts the budget.
	run(x *rankCtx, begin func() bool)
	// figures turns the samples into end-to-end numbers.
	figures() []figure
}

// ---- sessions-churn ------------------------------------------------------

// churnCyclesPerBlock is the number of session cycles between gates.
const churnCyclesPerBlock = 4

// churnTracedCycles bounds the cycles recorded as spans (eight spans per
// rank and cycle).
const churnTracedCycles = 500

// churn runs the paper's repeated init/finalize (§III): every cycle builds
// a session, a world-sized communicator and its duplicate, exchanges one
// ring token, and tears everything down again.
type churn struct {
	tags   []string
	token  []byte
	cycles *series
	dups   *series
	ran    int // cycles run, warm-up included: the base of per-cycle counters
}

func newChurn(in *inputs, np int) *churn {
	k := &churn{token: in.bytes(8), cycles: newSeries(np), dups: newSeries(np)}
	for i := 0; i < 64; i++ {
		k.tags = append(k.tags, in.tag("churn"))
	}
	return k
}

func (k *churn) run(x *rankCtx, begin func() bool) {
	if begin() {
		return
	}
	for b := 0; ; b++ {
		for i := 0; i < churnCyclesPerBlock; i++ {
			op := b*churnCyclesPerBlock + i
			if !k.cycle(x, k.tags[op%len(k.tags)], int64(op), b > 0) {
				x.g.abort()
				return
			}
		}
		if x.rank == 0 {
			k.ran = (b + 1) * churnCyclesPerBlock
		}
		if x.g.next() {
			return
		}
	}
}

func (k *churn) cycle(x *rankCtx, tag string, op int64, record bool) bool {
	var ph phases
	t0 := time.Now()
	st, ok := open(x.p, x.t, tag, k.token, &ph, nil)
	if st == nil {
		return false
	}
	d0 := time.Now()
	dup, err := st.comm.Dup()
	ph.dup = time.Since(d0)
	if !x.t.call("Comm.Dup", err) {
		return false
	}
	if dup.ExCID() == st.comm.ExCID() {
		ok = x.t.wrongf("rank %d: dup exCID %v equals its parent's", x.rank, dup.ExCID())
	}
	if !sameMembers(dup.Group(), st.world) {
		ok = x.t.wrongf("rank %d: dup group %v is not %s", x.rank, dup.Group().GlobalRanks(), mpi.PsetWorld)
	}
	if x.c != nil {
		// The engine lives for exactly this cycle, so its totals are the
		// cycle's counts.
		x.c.addPMLTotal(x.p.PMLStatsSnapshot())
	}
	f0 := time.Now()
	ok = x.t.call("Comm.Free", dup.Free()) && ok
	ph.free = time.Since(f0)
	var closing phases
	ok = st.close(x.t, &closing) && ok
	ph.free += closing.free
	ph.finalize = closing.finalize
	if !record {
		return ok
	}
	k.cycles.add(x.rank, time.Since(t0))
	k.dups.add(x.rank, ph.dup)
	if x.tr != nil && op < churnTracedCycles {
		x.tr.phases(x.rank, op, ph)
	}
	return ok
}

func (k *churn) figures() []figure {
	cyc := k.cycles.maxOverRanks()
	dup := k.dups.maxOverRanks()
	var total float64
	for _, c := range cyc {
		total += c
	}
	rate := 0.0
	if total > 0 {
		rate = float64(len(cyc)) / (total / 1e9)
	}
	return []figure{
		{name: "cycle_p50_us", unit: "us", key: "op_p50_us", value: usOf(median(cyc))},
		{name: "cycle_p90_us", unit: "us", key: "op_p90_us", value: usOf(quantile(cyc, 0.9))},
		{name: "cycles_per_s", unit: "1/s", key: "ops_per_s", value: rate},
		{name: "dup_p50_us", unit: "us", key: "op2_p50_us", value: usOf(median(dup))},
		{name: "cycles", unit: "count", value: float64(len(cyc))},
	}
}

// ---- p2p-sm / p2p-udp ----------------------------------------------------

// Point-to-point kernel parameters: ping-pong round trips per sample, the
// 8 B stream's window (messages in flight) and windows per sample.
const (
	pingsPerBlock   = 200
	streamWindow    = 64
	streamPerBlock  = 8
	bulkPerBlock    = 4
	p2pTagPing      = 11
	p2pTagStream    = 12
	p2pTagBulk      = 13
	p2pTagAck       = 14
	pingPayloadSize = 8
)

// p2p runs three kernels between ranks 0 and 1 of the working
// communicator: blocks of 8 B ping-pongs, an 8 B stream with
// streamWindow messages in flight, and a stream of bulk messages above
// the transport's eager limit, so it takes the rendezvous path.
type p2p struct {
	pings      [][]byte // seeded ping payloads, cycled through
	mask       uint64   // stream sequence stamp mask
	bulk       []byte   // seeded bulk payload
	bulkWindow int
	share      [3]float64 // budget share of each kernel

	pingBlocks, streamBlocks, bulkBlocks *series
}

func newP2P(in *inputs, bulkSize, bulkWindow int) *p2p {
	k := &p2p{
		mask: in.mask(), bulk: in.bytes(bulkSize), bulkWindow: bulkWindow,
		share:        [3]float64{0.4, 0.3, 0.3},
		pingBlocks:   newSeries(2),
		streamBlocks: newSeries(2),
		bulkBlocks:   newSeries(2),
	}
	for i := 0; i < 64; i++ {
		k.pings = append(k.pings, in.bytes(pingPayloadSize))
	}
	return k
}

func (k *p2p) run(x *rankCtx, begin func() bool) {
	sendBufs := make([][]byte, streamWindow)
	recvBufs := make([][]byte, streamWindow)
	for i := range sendBufs {
		sendBufs[i] = make([]byte, 8)
		recvBufs[i] = make([]byte, 8)
	}
	bulkSend := make([][]byte, k.bulkWindow)
	bulkRecv := make([][]byte, k.bulkWindow)
	for i := range bulkSend {
		bulkSend[i] = append([]byte(nil), k.bulk...)
		bulkRecv[i] = make([]byte, len(k.bulk))
	}
	reqs := make([]mpi.Request, streamWindow)
	if begin() {
		return
	}
	// The three kernels share the region's budget in turn, each its share.
	start := x.g.deadline.Add(-x.g.budget)
	until := func(f float64) time.Time { return start.Add(time.Duration(f * float64(x.g.budget))) }
	if !k.pingpong(x, until(k.share[0])) {
		return
	}
	if !k.stream(x, until(k.share[0]+k.share[1]), sendBufs, recvBufs, reqs, p2pTagStream, k.streamBlocks, streamPerBlock) {
		return
	}
	k.stream(x, x.g.deadline, bulkSend, bulkRecv, reqs[:k.bulkWindow], p2pTagBulk, k.bulkBlocks, bulkPerBlock)
}

// blockLoop runs block, the first time as warm-up, until every rank agrees
// that end has passed. It reports false once a call failed here or on
// another rank.
func blockLoop(x *rankCtx, end time.Time, block func(warm bool) bool) bool {
	for warm := true; ; warm = false {
		if !block(warm) {
			x.g.abort()
			return false
		}
		if x.g.until(end) {
			return !x.g.isAborted()
		}
	}
}

func (k *p2p) pingpong(x *rankCtx, end time.Time) bool {
	c, t := x.comm, x.t
	buf := make([]byte, pingPayloadSize)
	i := 0
	return blockLoop(x, end, func(warm bool) bool {
		op := x.op.tick()
		t0 := time.Now()
		for n := 0; n < pingsPerBlock; n++ {
			want := k.pings[i%len(k.pings)]
			i++
			if x.rank == 0 {
				if err := c.Send(want, 1, p2pTagPing); err != nil {
					return t.fail("Send", err)
				}
				if _, err := c.Recv(buf, 1, p2pTagPing); err != nil {
					return t.fail("Recv", err)
				}
			} else {
				if _, err := c.Recv(buf, 0, p2pTagPing); err != nil {
					return t.fail("Recv", err)
				}
				if err := c.Send(buf, 0, p2pTagPing); err != nil {
					return t.fail("Send", err)
				}
			}
			if !bytes.Equal(buf, want) {
				return t.wrongf("rank %d: ping-pong echo %x, want %x", x.rank, buf, want)
			}
		}
		d := time.Since(t0)
		t.attempted.Add(2 * pingsPerBlock)
		if warm {
			return true
		}
		k.pingBlocks.add(x.rank, d)
		if x.tr != nil {
			x.tr.add("mpi.pingpong_block", x.rank, op, -1, t0, t0.Add(d))
		}
		return true
	})
}

// stream sends windows of stamped messages from rank 0 to rank 1; rank 1
// checks every stamp (and the seeded body of bulk messages) and answers
// each window with a one-byte ack.
func (k *p2p) stream(x *rankCtx, end time.Time, send, recv [][]byte, reqs []mpi.Request, tag int, out *series, windows int) bool {
	c, t := x.comm, x.t
	ack := make([]byte, 1)
	bulk := len(send[0]) > 8
	var seq uint64
	return blockLoop(x, end, func(warm bool) bool {
		op := x.op.tick()
		t0 := time.Now()
		for w := 0; w < windows; w++ {
			if x.rank == 0 {
				for i := range reqs {
					stamp(send[i], seq, k.mask)
					seq++
					reqs[i] = c.Isend(send[i], 1, tag)
				}
				if err := mpi.WaitAll(reqs...); err != nil {
					return t.fail("Isend", err)
				}
				if _, err := c.Recv(ack, 1, p2pTagAck); err != nil {
					return t.fail("Recv", err)
				}
				continue
			}
			for i := range reqs {
				reqs[i] = c.Irecv(recv[i], 0, tag)
			}
			if err := mpi.WaitAll(reqs...); err != nil {
				return t.fail("Irecv", err)
			}
			for i := range reqs {
				if got := unstamp(recv[i], k.mask); got != seq {
					return t.wrongf("stream message stamped %d arrived as number %d", got, seq)
				}
				seq++
				if bulk && !bytes.Equal(recv[i][8:], k.bulk[8:]) {
					return t.wrongf("bulk message %d body differs from the seeded payload", seq-1)
				}
			}
			if err := c.Send(ack, 0, p2pTagAck); err != nil {
				return t.fail("Send", err)
			}
		}
		d := time.Since(t0)
		t.attempted.Add(int64(windows * (len(reqs) + 1)))
		if warm {
			return true
		}
		out.add(x.rank, d)
		if x.tr != nil {
			x.tr.add("mpi.stream_block", x.rank, op, -1, t0, t0.Add(d))
		}
		return true
	})
}

func (k *p2p) figures() []figure {
	ping := k.pingBlocks.maxOverRanks()
	half := make([]float64, len(ping))
	for i, d := range ping {
		half[i] = d / (2 * pingsPerBlock)
	}
	rate := func(s *series, perBlock int) []float64 {
		blocks := s.maxOverRanks()
		out := make([]float64, len(blocks))
		for i, d := range blocks {
			out[i] = float64(perBlock) / (d / 1e9)
		}
		return out
	}
	msgRate := rate(k.streamBlocks, streamPerBlock*streamWindow)
	bulkRate := rate(k.bulkBlocks, bulkPerBlock*k.bulkWindow)
	bulkMsg := median(bulkRate)
	bulkUS := 0.0
	if bulkMsg > 0 {
		bulkUS = 1e6 / bulkMsg
	}
	return []figure{
		{name: "lat_p50_us", unit: "us", key: "op_p50_us", value: usOf(median(half))},
		{name: "lat_p90_us", unit: "us", key: "op_p90_us", value: usOf(quantile(half, 0.9))},
		{name: "msg_rate_mps", unit: "1/s", key: "ops_per_s", value: median(msgRate)},
		{name: "bulk_msg_us", unit: "us", key: "op2_p50_us", value: bulkUS},
		{name: "bw_MBps", unit: "MB/s", value: bulkMsg * float64(len(k.bulk)) / 1e6},
		{name: "pingpong_samples", unit: "count", value: float64(len(ping))},
	}
}

// ---- coll-mix ------------------------------------------------------------

// Collective mix parameters.
const (
	mixLength     = 240 // seeded operation sequence, cycled through
	mixPerBlock   = 24
	allreduceLen  = 16
	bcastSize     = 4 << 10
	collBaseLimit = 1 << 20
)

const (
	opAllreduce = iota
	opBcast
	opBarrier
	opPAllreduce
	numMixOps
)

var mixNames = [numMixOps]string{"allreduce", "bcast", "barrier", "pallreduce"}

// collMix runs a seed-ordered mix of Allreduce (16 float64), Bcast (4 KiB),
// Barrier and persistent Allreduce Start/Wait on every rank.
type collMix struct {
	np    int
	seq   []int    // operation kind per position
	roots []int    // Bcast root per position
	base  [][]int  // Allreduce base values per position
	bcast [][]byte // Bcast payload per position
	sums  [][]byte // expected Allreduce result per position

	perOp  [numMixOps]*series
	blocks *series
}

func newCollMix(in *inputs, np int) *collMix {
	k := &collMix{np: np, blocks: newSeries(np)}
	for i := range k.perOp {
		k.perOp[i] = newSeries(np)
	}
	weights := []int{opAllreduce, opAllreduce, opAllreduce, opAllreduce,
		opBcast, opBcast, opBcast, opBarrier, opBarrier, opPAllreduce, opPAllreduce}
	for i := 0; i < mixLength; i++ {
		kind := weights[in.rng.Intn(len(weights))]
		k.seq = append(k.seq, kind)
		k.roots = append(k.roots, in.rng.Intn(np))
		var base []int
		var bcast, sum []byte
		switch kind {
		case opAllreduce, opPAllreduce:
			base = make([]int, allreduceLen)
			want := make([]float64, allreduceLen)
			for j := range base {
				base[j] = in.rng.Intn(collBaseLimit)
				// Rank r contributes base+r, so the sum has a closed form.
				want[j] = float64(np*base[j] + np*(np-1)/2)
			}
			sum = mpi.PackFloat64s(want)
		case opBcast:
			bcast = in.bytes(bcastSize)
		}
		k.base = append(k.base, base)
		k.bcast = append(k.bcast, bcast)
		k.sums = append(k.sums, sum)
	}
	return k
}

func (k *collMix) run(x *rankCtx, begin func() bool) {
	c, t := x.comm, x.t
	sends := make([][]byte, mixLength)
	for i, base := range k.base {
		if base == nil {
			continue
		}
		v := make([]float64, len(base))
		for j, b := range base {
			v[j] = float64(b + x.rank)
		}
		sends[i] = mpi.PackFloat64s(v)
	}
	recv := make([]byte, 8*allreduceLen)
	psend := make([]byte, 8*allreduceLen)
	precv := make([]byte, 8*allreduceLen)
	bbuf := make([]byte, bcastSize)
	pc, err := c.AllreduceInit(psend, precv, allreduceLen, mpi.Float64, mpi.OpSum)
	if !t.call("AllreduceInit", err) {
		x.g.abort()
		return
	}
	defer func() { t.call("PersistentColl.Free", pc.Free()) }()
	if begin() {
		return
	}
	pos := 0
	for warm := true; ; warm = false {
		op := x.op.tick()
		b0 := time.Now()
		for n := 0; n < mixPerBlock; n++ {
			i := pos % mixLength
			pos++
			kind := k.seq[i]
			var d time.Duration
			var err error
			switch kind {
			case opAllreduce:
				t0 := time.Now()
				err = c.Allreduce(sends[i], recv, allreduceLen, mpi.Float64, mpi.OpSum)
				d = time.Since(t0)
				if err == nil && !bytes.Equal(recv, k.sums[i]) {
					t.wrongf("rank %d: Allreduce at mix position %d differs from the closed-form sum", x.rank, i)
				}
			case opBcast:
				if x.rank == k.roots[i] {
					copy(bbuf, k.bcast[i])
				} else {
					clear(bbuf)
				}
				t0 := time.Now()
				err = c.Bcast(bbuf, k.roots[i])
				d = time.Since(t0)
				if err == nil && !bytes.Equal(bbuf, k.bcast[i]) {
					t.wrongf("rank %d: Bcast at mix position %d differs from root %d's payload", x.rank, i, k.roots[i])
				}
			case opBarrier:
				t0 := time.Now()
				err = c.Barrier()
				d = time.Since(t0)
			case opPAllreduce:
				copy(psend, sends[i])
				t0 := time.Now()
				if err = pc.Start(); err == nil {
					err = pc.Wait()
				}
				d = time.Since(t0)
				if err == nil && !bytes.Equal(precv, k.sums[i]) {
					t.wrongf("rank %d: persistent Allreduce at mix position %d differs from the closed-form sum", x.rank, i)
				}
			}
			if err != nil {
				t.fail(mixNames[kind], err)
				x.g.abort()
				return
			}
			if !warm {
				k.perOp[kind].add(x.rank, d)
			}
		}
		bd := time.Since(b0)
		t.attempted.Add(mixPerBlock)
		if !warm {
			k.blocks.add(x.rank, bd)
		}
		if x.tr != nil {
			x.tr.add("mpi.coll_block", x.rank, op, -1, b0, b0.Add(bd))
		}
		if x.g.next() {
			return
		}
	}
}

func (k *collMix) figures() []figure {
	ar := k.perOp[opAllreduce].maxOverRanks()
	blocks := k.blocks.maxOverRanks()
	var total float64
	for _, b := range blocks {
		total += b
	}
	rate := 0.0
	if total > 0 {
		rate = float64(len(blocks)*mixPerBlock) / (total / 1e9)
	}
	p50 := func(kind int) float64 { return usOf(median(k.perOp[kind].maxOverRanks())) }
	return []figure{
		{name: "allreduce_p50_us", unit: "us", key: "op_p50_us", value: usOf(median(ar))},
		{name: "allreduce_p90_us", unit: "us", key: "op_p90_us", value: usOf(quantile(ar, 0.9))},
		{name: "colls_per_s", unit: "1/s", key: "ops_per_s", value: rate},
		{name: "bcast_p50_us", unit: "us", key: "op2_p50_us", value: p50(opBcast)},
		{name: "barrier_p50_us", unit: "us", value: p50(opBarrier)},
		{name: "pallreduce_p50_us", unit: "us", value: p50(opPAllreduce)},
		{name: "allreduce_samples", unit: "count", value: float64(len(ar))},
	}
}
