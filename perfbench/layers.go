package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gompi/internal/btl"
	btlnet "gompi/internal/btl/net"
	btlsm "gompi/internal/btl/sm"
	btludp "gompi/internal/btl/udp"
	"gompi/internal/pmix"
	"gompi/internal/pml"
	"gompi/internal/prrte"
	"gompi/internal/simnet"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

// layerTable lists the per-layer metrics of the traced run, in the order of
// BENCHMARK.json's per_layer list.
var layerTable = []struct{ name, unit string }{
	{"runtime.launch_ms", "ms"},
	{"mpi.session_init_us", "us"},
	{"mpi.group_from_pset_us", "us"},
	{"mpi.comm_create_from_group_us", "us"},
	{"mpi.first_exchange_us", "us"},
	{"mpi.comm_dup_us", "us"},
	{"mpi.comm_free_us", "us"},
	{"mpi.session_finalize_us", "us"},
	{"core.acquire_us", "us"},
	{"core.release_us", "us"},
	{"core.resolve_pset_us", "us"},
	{"pmix.group_construct_us", "us"},
	{"pmix.group_construct_self_us", "us"},
	{"pmix.group_destruct_us", "us"},
	{"pmix.fence_us", "us"},
	{"pmix.fence_self_us", "us"},
	{"pmix.query_psets_us", "us"},
	{"prrte.exchange_us", "us"},
	{"prrte.alloc_pgcid_us", "us"},
	{"prrte.query_psets_us", "us"},
	{"simnet.msgs_per_cycle", "count"},
	{"simnet.bytes_per_cycle", "B"},
	{"simnet.inter_node_msgs_per_cycle", "count"},
	{"pml.ext_per_cycle", "count"},
	{"pml.acks_per_cycle", "count"},
	{"go.allocs_per_cycle", "count"},
	{"pml.rtt_us", "us"},
	{"pml.rtt_self_us", "us"},
	{"pml.stream_mps", "msg/s"},
	{"go.allocs_per_msg", "count"},
	{"go.bytes_per_msg", "B"},
	{"pml.rendezvous_per_msg", "ratio"},
	{"pml.unexpected_ratio", "ratio"},
	{"btl.sm.oneway_us", "us"},
	{"btl.net.oneway_us", "us"},
	{"btl.udp.oneway_us", "us"},
	{"btl.udp.oneway_16k_us", "us"},
	{"btl.sm.bytes_per_msg", "B"},
	{"btl.net.bytes_per_msg", "B"},
	{"btl.udp.bytes_per_msg", "B"},
	{"btl.udp.recv_ratio", "ratio"},
	{"btl.udp.drops", "count"},
	{"coll.steps_per_op", "count"},
	{"coll.msgs_per_op", "count"},
	{"coll.schedule_cache_hit_ratio", "ratio"},
	{"go.allocs_per_coll", "count"},
	{"go.gc_cycles_per_s", "1/s"},
	{"go.heap_inuse_peak_MB", "MB"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

func layerKeys() []string {
	var out []string
	for _, l := range layerTable {
		out = append(out, l.name)
	}
	return out
}

// runTraced is the traced run: set-up launches with spans, a measurement
// launch with an untraced region (counters) and a traced region (spans),
// then the probes that drive each layer below mpi directly at the
// workload's shape.
func runTraced(w *workload, r *report, budget time.Duration) {
	in := newInputs(r.seed)
	tr := newTracer()
	startup := newCounts()
	setup := setupLaunchTimes(w.sh, in, &r.t, tracedSetupLaunches, tr, startup)
	np := w.sh.np()
	plain := &region{k: w.kernel(in, np), g: newGate(np, budget/4), c: newCounts()}
	traced := &region{k: w.kernel(in, np), g: newGate(np, budget/4), tr: tr}
	launch(w, in, &r.t, []*region{plain, traced})

	v := map[string]float64{}
	probe := budget / 2 / 5
	probeCore(w.sh, &r.t, tr, probe)
	probePMIx(w.sh, &r.t, tr, probe)
	probePRRTE(w.sh, &r.t, tr, probe)
	probePML(w.sh, &r.t, tr, probe, v)
	udpStats := probeBTLs(&r.t, tr, probe, v)

	place := func(where int) int {
		if where < 0 {
			return -1 - where
		}
		return where / w.sh.ppn
	}
	med := func(name string) float64 { return usOf(median(tr.durations(name))) }
	v["runtime.launch_ms"] = median(tr.durations("runtime.launch")) / 1e6
	for _, n := range []string{"session_init", "group_from_pset", "comm_create_from_group",
		"first_exchange", "comm_dup", "comm_free", "session_finalize"} {
		v["mpi."+n+"_us"] = med("mpi." + n)
	}
	for _, n := range []string{"core.acquire", "core.release", "core.resolve_pset",
		"pmix.group_construct", "pmix.group_destruct", "pmix.fence", "pmix.query_psets",
		"prrte.exchange", "prrte.alloc_pgcid", "prrte.query_psets"} {
		v[n+"_us"] = med(n)
	}
	v["pmix.group_construct_self_us"] = usOf(median(tr.selfTimes("pmix.group_construct", "prrte.exchange", place)))
	v["pmix.fence_self_us"] = usOf(median(tr.selfTimes("pmix.fence", "prrte.exchange", place)))

	// Control-plane counts per init cycle: churn cycles on sessions-churn,
	// set-up launches elsewhere (each is one startup cycle).
	cyc, cycles := startup, float64(len(setup))
	if ch, ok := plain.k.(*churn); ok {
		cyc, cycles = plain.c, float64(ch.ran)
	}
	per := func(n uint64, base float64) float64 {
		if base == 0 {
			return 0
		}
		return float64(n) / base
	}
	v["simnet.msgs_per_cycle"] = per(cyc.fabric.Messages, cycles)
	v["simnet.bytes_per_cycle"] = per(cyc.fabric.Bytes, cycles)
	v["simnet.inter_node_msgs_per_cycle"] = per(cyc.fabric.InterNodeMsgs, cycles)
	v["pml.ext_per_cycle"] = per(cyc.pml.ExtSent, cycles)
	v["pml.acks_per_cycle"] = per(cyc.pml.AcksSent, cycles)
	v["go.allocs_per_cycle"] = per(cyc.mallocs, cycles)

	c := plain.c
	msgs := float64(c.pmlMsgs())
	v["go.allocs_per_msg"] = per(c.mallocs, msgs)
	v["go.bytes_per_msg"] = per(c.allocBytes, msgs)
	v["pml.rendezvous_per_msg"] = per(c.pml.Rendezvous, msgs)
	v["pml.unexpected_ratio"] = per(c.pml.UnexpectedHits, float64(c.pml.PostedHits+c.pml.UnexpectedHits))
	for _, name := range []string{"sm", "net", "udp"} {
		s := c.btl[name]
		v["btl."+name+".bytes_per_msg"] = per(s.Bytes, float64(s.Msgs))
	}
	// udp receive-path health: from the workload when it runs over udp,
	// otherwise from the udp probe.
	if s, ok := c.btl["udp"]; ok && s.Msgs > 0 {
		udpStats = s
	}
	v["btl.udp.recv_ratio"] = per(udpStats.RecvMsgs, float64(udpStats.Msgs))
	v["btl.udp.drops"] = float64(udpStats.Drops)
	ops := float64(c.collOps())
	v["coll.steps_per_op"] = per(c.collSteps(), ops)
	v["coll.msgs_per_op"] = per(c.pmlMsgs(), ops)
	v["coll.schedule_cache_hit_ratio"] = per(c.coll["schedule_cache_hits"], ops)
	v["go.allocs_per_coll"] = per(c.mallocs, ops)
	v["go.gc_cycles_per_s"] = per(c.gcs, c.elapsed.Seconds())
	v["go.heap_inuse_peak_MB"] = float64(c.heapPeak) / 1e6

	// Tracing overhead: the traced region's headline p50 against the
	// untraced region's, both from this launch.
	plainP50, tracedP50 := headline(plain.k), headline(traced.k)
	if plainP50 > 0 {
		v["trace.overhead_pct"] = (tracedP50 - plainP50) / plainP50 * 100
	}
	v["trace.spans"] = float64(len(tr.spans) + tr.dropped)

	for _, l := range layerTable {
		r.layers = append(r.layers, figure{name: l.name, unit: l.unit, key: l.name, value: v[l.name]})
	}
	r.layers = append(r.layers,
		figure{name: "untraced op_p50_us", unit: "us", value: plainP50},
		figure{name: "traced op_p50_us", unit: "us", value: tracedP50})
	if path, err := tr.write(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, r.seed)); err == nil {
		r.files = append(r.files, path)
	} else {
		r.t.call("write spans", err)
	}
}

// headline returns a kernel's op_p50_us figure.
func headline(k kernel) float64 {
	for _, f := range k.figures() {
		if f.key == "op_p50_us" {
			return f.value
		}
	}
	return 0
}

// ---- core ----------------------------------------------------------------

// probeCore cycles every rank's core instance through Acquire →
// ResolvePset(mpi://world) → Release, the instance bring-up and teardown
// under SessionInit and Session.Finalize.
func probeCore(sh shape, t *tally, tr *tracer, budget time.Duration) {
	job, err := runtime.NewJob(sh.options())
	if !t.call("runtime.NewJob", err) {
		return
	}
	defer job.Shutdown()
	g := newGate(sh.np(), budget)
	err = job.Launch(func(p *mpi.Process) error {
		inst, rank := p.Instance(), p.JobRank()
		if g.begin() {
			return nil
		}
		for op := int64(0); ; op++ {
			t0 := time.Now()
			if !t.call("core.Acquire", inst.Acquire()) {
				g.abort()
				return nil
			}
			t1 := time.Now()
			world, err := inst.ResolvePset(mpi.PsetWorld)
			t2 := time.Now()
			if t.call("core.ResolvePset", err) && len(world) != sh.np() {
				t.wrongf("core: %s resolved to %d ranks, want %d", mpi.PsetWorld, len(world), sh.np())
			}
			t.call("core.Release", inst.Release())
			t3 := time.Now()
			tr.add("core.acquire", rank, op, -1, t0, t1)
			tr.add("core.resolve_pset", rank, op, -1, t1, t2)
			tr.add("core.release", rank, op, -1, t2, t3)
			if g.await(func() bool { return op+1 >= maxProbeOps || time.Now().After(g.deadline) }) {
				return nil
			}
		}
	})
	t.call("Job.Launch", err)
}

// ---- pmix / prrte ----------------------------------------------------------

// tracedDaemon is a node's PRRTE daemon as its PMIx server sees it, with a
// span around every call the server makes into the runtime.
type tracedDaemon struct {
	*prrte.Daemon
	tr *tracer
	op *atomic.Int64
}

func (d *tracedDaemon) span(name string, t0 time.Time) {
	d.tr.add(name, -1-d.Node(), d.op.Load(), -1, t0, time.Now())
}

func (d *tracedDaemon) Exchange(opKey string, participants []int, local []byte, timeout time.Duration, abort <-chan struct{}) (map[int][]byte, error) {
	defer d.span("prrte.exchange", time.Now())
	return d.Daemon.Exchange(opKey, participants, local, timeout, abort)
}

func (d *tracedDaemon) AllocPGCID(groupName string, members []int, timeout time.Duration) (uint64, error) {
	defer d.span("prrte.alloc_pgcid", time.Now())
	return d.Daemon.AllocPGCID(groupName, members, timeout)
}

func (d *tracedDaemon) QueryPsets(timeout time.Duration) (map[string][]int, error) {
	defer d.span("prrte.query_psets", time.Now())
	return d.Daemon.QueryPsets(timeout)
}

// maxProbeOps bounds the operations of one probe, and with them its spans.
const maxProbeOps = 500

// probePset is a process set the probes register with the runtime, so a
// pset query has a known answer to check.
const probePset = "app://perfbench"

// runtimeStack is a fabric, a DVM and one PMIx server per node whose
// daemons are traced.
type runtimeStack struct {
	dvm     *prrte.DVM
	servers []*pmix.Server
	jm      prrte.JobMap
	op      atomic.Int64
}

func newRuntimeStack(sh shape, tr *tracer) *runtimeStack {
	fabric := simnet.NewFabric(topo.New(topo.Loopback(sh.ppn), sh.nodes))
	s := &runtimeStack{dvm: prrte.NewDVM(fabric), jm: prrte.JobMap{NP: sh.np(), PPN: sh.ppn}}
	all := make([]int, sh.np())
	for i := range all {
		all[i] = i
	}
	s.dvm.RegisterPset(probePset, all)
	for n := 0; n < sh.nodes; n++ {
		d := &tracedDaemon{Daemon: s.dvm.Daemon(n), tr: tr, op: &s.op}
		s.servers = append(s.servers, pmix.NewServer(d, s.jm, "job-0"))
	}
	return s
}

func (s *runtimeStack) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	s.dvm.Shutdown()
}

// probePMIx drives the PMIx client of every rank through the calls a
// session cycle makes: group construct (with a PGCID) and destruct, a
// fence, and a pset query. The daemons beneath are traced, so each call's
// self time excludes the PRRTE exchange it waited on.
func probePMIx(sh shape, t *tally, tr *tracer, budget time.Duration) {
	s := newRuntimeStack(sh, tr)
	defer s.close()
	np := sh.np()
	all := make([]int, np)
	for i := range all {
		all[i] = i
	}
	g := newGate(np, budget)
	s.op.Store(1)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := s.servers[s.jm.NodeOf(rank)].Connect(rank)
			defer c.Finalize()
			timeout := 20 * time.Second
			if g.begin() {
				return
			}
			for op := int64(1); ; op++ {
				name := fmt.Sprintf("perfbench-%d", op)
				t0 := time.Now()
				res, err := c.GroupConstruct(name, all, pmix.GroupOpts{Timeout: timeout, AssignContextID: true})
				t1 := time.Now()
				if t.call("pmix.GroupConstruct", err) && (len(res.Members) != np || res.PGCID == 0) {
					t.wrongf("pmix: group %s has %d members and PGCID %d", name, len(res.Members), res.PGCID)
				}
				t.call("pmix.GroupDestruct", c.GroupDestruct(name, all, timeout))
				t2 := time.Now()
				t.call("pmix.Fence", c.Fence(all, false, timeout))
				t3 := time.Now()
				psets, err := c.QueryPsetNames()
				t4 := time.Now()
				if t.call("pmix.QueryPsetNames", err) && len(psets[probePset]) != np {
					t.wrongf("pmix: %s has %d ranks, want %d", probePset, len(psets[probePset]), np)
				}
				tr.add("pmix.group_construct", rank, op, -1, t0, t1)
				tr.add("pmix.group_destruct", rank, op, -1, t1, t2)
				tr.add("pmix.fence", rank, op, -1, t2, t3)
				tr.add("pmix.query_psets", rank, op, -1, t3, t4)
				next := op + 1
				if g.await(func() bool { s.op.Store(next); return next >= maxProbeOps || time.Now().After(g.deadline) }) {
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// probePRRTE drives the daemons directly: an all-to-all exchange among
// every node's daemon, a PGCID allocation by the leader daemon, and a pset
// query on every daemon.
func probePRRTE(sh shape, t *tally, tr *tracer, budget time.Duration) {
	fabric := simnet.NewFabric(topo.New(topo.Loopback(sh.ppn), sh.nodes))
	dvm := prrte.NewDVM(fabric)
	defer dvm.Shutdown()
	nodes := make([]int, sh.nodes)
	members := make([]int, sh.np())
	for i := range nodes {
		nodes[i] = i
	}
	for i := range members {
		members[i] = i
	}
	g := newGate(sh.nodes, budget)
	var wg sync.WaitGroup
	for n := 0; n < sh.nodes; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			d := dvm.Daemon(node)
			local := []byte(fmt.Sprintf("node-%d", node))
			if g.begin() {
				return
			}
			for op := int64(1); ; op++ {
				t0 := time.Now()
				res, err := d.Exchange(fmt.Sprintf("perfbench-%d", op), nodes, local, 20*time.Second, nil)
				t1 := time.Now()
				if t.call("prrte.Exchange", err) && len(res) != sh.nodes {
					t.wrongf("prrte: exchange returned %d contributions, want %d", len(res), sh.nodes)
				}
				tr.add("prrte.exchange", -1-node, op, -1, t0, t1)
				if node == 0 {
					t1 = time.Now()
					_, err := d.AllocPGCID("", members, 20*time.Second)
					t.call("prrte.AllocPGCID", err)
					tr.add("prrte.alloc_pgcid", -1-node, op, -1, t1, time.Now())
				}
				t2 := time.Now()
				_, err = d.QueryPsets(20 * time.Second)
				t.call("prrte.QueryPsets", err)
				tr.add("prrte.query_psets", -1-node, op, -1, t2, time.Now())
				if g.await(func() bool { return op+1 >= maxProbeOps || time.Now().After(g.deadline) }) {
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// ---- pml -------------------------------------------------------------------

// tracedModule wraps a BTL module so the benchmark sees every packet the
// PML hands it; while on is set each Send is recorded as a span.
type tracedModule struct {
	btl.Module
	rank int
	tr   *tracer
	on   *atomic.Bool
	op   *atomic.Int64
}

func (m *tracedModule) AddProc(globalRank int) (btl.Endpoint, error) {
	ep, err := m.Module.AddProc(globalRank)
	if err != nil {
		return nil, err
	}
	return &tracedEndpoint{Endpoint: ep, m: m}, nil
}

type tracedEndpoint struct {
	btl.Endpoint
	m *tracedModule
}

func (e *tracedEndpoint) Send(pkt []byte) error {
	if !e.m.on.Load() {
		return e.Endpoint.Send(pkt)
	}
	t0 := time.Now()
	err := e.Endpoint.Send(pkt)
	e.m.tr.add("btl.send", e.m.rank, e.m.op.Load(), -1, t0, time.Now())
	return err
}

// pmlModules builds the BTL modules a rank of the workload's shape would
// get, for ranks 0 and 1 (which share node 0). The engines close them.
func pmlModules(sh shape, fabric *simnet.Fabric) ([2][]btl.Module, error) {
	var mods [2][]btl.Module
	nodeOf := func(r int) int { return r / sh.ppn }
	switch sh.btl {
	case "sm":
		for r := 0; r < 2; r++ {
			mods[r] = []btl.Module{btlsm.New(fabric.Segment(0), 0, r, nodeOf, 0)}
		}
	case "udp":
		var cards [2]string
		var udp [2]*btludp.Module
		nonce := runtime.NewJobNonce() // both ends of one job share it
		for r := 0; r < 2; r++ {
			m, err := btludp.New(btludp.Config{
				Rank: r, Nonce: nonce,
				Resolve: func(peer int) (string, error) { return cards[peer], nil },
				Alloc:   pml.ArenaGet, Free: pml.ArenaPut,
			})
			if err != nil {
				if r == 1 {
					udp[0].Close()
				}
				return mods, err
			}
			udp[r] = m
			mods[r] = []btl.Module{m}
		}
		cards[0], cards[1] = udp[0].Card(), udp[1].Card()
	default:
		var eps [2]*simnet.Endpoint
		for r := 0; r < 2; r++ {
			eps[r] = fabric.NewEndpoint(0)
		}
		resolve := func(peer int) (simnet.Addr, error) { return eps[peer].Addr(), nil }
		for r := 0; r < 2; r++ {
			mods[r] = []btl.Module{btlsm.New(fabric.Segment(0), 0, r, nodeOf, 0), btlnet.New(eps[r], resolve, 0)}
		}
	}
	return mods, nil
}

// probePML runs two PML engines over the workload's BTL modules: blocks of
// 8 B round trips and an 8 B stream with streamWindow messages in flight.
// The first traced blocks record BTL send spans for the PML's self time.
func probePML(sh shape, t *tally, tr *tracer, budget time.Duration, v map[string]float64) {
	fabric := simnet.NewFabric(topo.New(topo.Loopback(max(sh.ppn, 2)), sh.nodes))
	mods, err := pmlModules(sh, fabric)
	if !t.call("btl.New", err) {
		return
	}
	var on atomic.Bool
	var op atomic.Int64
	var eng [2]*pml.Engine
	var ch [2]*pml.Channel
	for r := 0; r < 2; r++ {
		var wrapped []btl.Module
		for _, m := range mods[r] {
			wrapped = append(wrapped, &tracedModule{Module: m, rank: r, tr: tr, on: &on, op: &op})
		}
		eng[r] = pml.NewEngine(wrapped, pml.Config{})
		defer eng[r].Close()
		ch[r], err = eng[r].AddChannel(1, pml.ExCID{}, false, r, []int{0, 1})
		if !t.call("pml.AddChannel", err) {
			return
		}
	}
	const (
		tagGo, tagPing, tagData, tagAck = 1, 2, 3, 4
		tracedBlocks                    = 20
	)
	// Rank 1 serves: each block starts with a go byte naming the kernel.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctl := make([]byte, 1)
		buf := make([]byte, 8)
		bufs := make([][]byte, streamWindow)
		for i := range bufs {
			bufs[i] = make([]byte, 8)
		}
		reqs := make([]*pml.Request, streamWindow)
		for {
			if _, err := ch[1].Recv(0, tagGo, ctl); !t.call("pml.Recv", err) || ctl[0] == 0 {
				return
			}
			switch ctl[0] {
			case 1:
				for i := 0; i < pingsPerBlock; i++ {
					if _, err := ch[1].Recv(0, tagPing, buf); !t.call("pml.Recv", err) {
						return
					}
					if !t.call("pml.Send", ch[1].Send(0, tagPing, buf)) {
						return
					}
				}
			case 2:
				for i := range reqs {
					reqs[i] = ch[1].Irecv(0, tagData, bufs[i])
				}
				if !t.call("pml.WaitAll", pml.WaitAll(reqs...)) {
					return
				}
				if !t.call("pml.Send", ch[1].Send(0, tagAck, ctl)) {
					return
				}
			}
		}
	}()
	ctl := []byte{1}
	buf := make([]byte, 8)
	want := []byte("pingpong")
	var rtts, rates []float64
	end := time.Now().Add(budget / 2)
	for b := 0; time.Now().Before(end) || b < tracedBlocks+1; b++ {
		traced := b < tracedBlocks
		on.Store(traced)
		op.Store(int64(b))
		ctl[0] = 1
		if !t.call("pml.Send", ch[0].Send(1, tagGo, ctl)) {
			break
		}
		t0 := time.Now()
		for i := 0; i < pingsPerBlock; i++ {
			t.call("pml.Send", ch[0].Send(1, tagPing, want))
			if _, err := ch[0].Recv(1, tagPing, buf); t.call("pml.Recv", err) && string(buf) != string(want) {
				t.wrongf("pml: echo %q, want %q", buf, want)
			}
		}
		d := time.Since(t0)
		if traced {
			tr.add("pml.rtt_block", 0, int64(b), -1, t0, t0.Add(d))
		} else {
			rtts = append(rtts, float64(d)/pingsPerBlock)
		}
	}
	on.Store(false)
	sbufs := make([][]byte, streamWindow)
	for i := range sbufs {
		sbufs[i] = make([]byte, 8)
	}
	reqs := make([]*pml.Request, streamWindow)
	end = time.Now().Add(budget / 2)
	for time.Now().Before(end) {
		ctl[0] = 2
		if !t.call("pml.Send", ch[0].Send(1, tagGo, ctl)) {
			break
		}
		t0 := time.Now()
		for i := range reqs {
			reqs[i] = ch[0].Isend(1, tagData, sbufs[i])
		}
		t.call("pml.WaitAll", pml.WaitAll(reqs...))
		_, err := ch[0].Recv(1, tagAck, ctl)
		t.call("pml.Recv", err)
		rates = append(rates, streamWindow/time.Since(t0).Seconds())
	}
	ctl[0] = 0
	t.call("pml.Send", ch[0].Send(1, tagGo, ctl))
	<-done
	v["pml.rtt_us"] = usOf(median(rtts))
	v["pml.stream_mps"] = median(rates)
	self := tr.selfTimes("pml.rtt_block", "btl.send", func(int) int { return 0 })
	v["pml.rtt_self_us"] = usOf(median(self) / pingsPerBlock)
}

// ---- btl -------------------------------------------------------------------

// btlPair is two modules of one transport that echo every packet back.
type btlPair struct {
	toB, toA  btl.Endpoint
	remaining int
	done      chan struct{}
}

// probeBTLs times a one-way packet on every transport: AddProc, then
// Endpoint.Send → DeliverFunc ping-pongs in which each delivery sends the
// packet straight back. It returns the udp probe's module counters.
func probeBTLs(t *tally, tr *tracer, budget time.Duration, v map[string]float64) mpi.TransportStats {
	var udpStats mpi.TransportStats
	fabric := simnet.NewFabric(topo.New(topo.Loopback(2), 2))
	smFabric := simnet.NewFabric(topo.New(topo.Loopback(2), 1))
	epA, epB := fabric.NewEndpoint(0), fabric.NewEndpoint(1)
	addrs := []simnet.Addr{epA.Addr(), epB.Addr()}
	resolve := func(r int) (simnet.Addr, error) { return addrs[r], nil }

	run := func(metric string, size int, a, b btl.Module, share time.Duration) {
		p := &btlPair{done: make(chan struct{}, 1)}
		a.Activate(func(pkt []byte) {
			p.remaining--
			if p.remaining > 0 {
				if err := p.toB.Send(pkt); err != nil {
					t.fail("btl.Send", err)
					p.done <- struct{}{}
				}
				return
			}
			p.done <- struct{}{}
		})
		b.Activate(func(pkt []byte) {
			if err := p.toA.Send(pkt); err != nil {
				t.fail("btl.Send", err)
			}
		})
		var err error
		p.toB, err = a.AddProc(1)
		if !t.call("btl.AddProc", err) {
			return
		}
		p.toA, err = b.AddProc(0)
		if !t.call("btl.AddProc", err) {
			return
		}
		const perBlock = 100
		var oneway []float64
		end := time.Now().Add(share)
		for op := int64(0); time.Now().Before(end) && op < maxProbeOps; op++ {
			p.remaining = perBlock
			pkt := make([]byte, size)
			t0 := time.Now()
			if !t.call("btl.Send", p.toB.Send(pkt)) {
				break
			}
			select {
			case <-p.done:
			case <-time.After(10 * time.Second):
				t.fail("btl."+metric, fmt.Errorf("ping-pong lost a packet"))
				return
			}
			d := time.Since(t0)
			t.attempted.Add(2*perBlock - 1)
			tr.add("btl."+metric, 0, op, -1, t0, t0.Add(d))
			oneway = append(oneway, float64(d)/(2*perBlock))
		}
		v["btl."+metric+"_us"] = usOf(median(oneway))
	}

	share := budget / 4
	smA, smB := btlsm.New(smFabric.Segment(0), 0, 0, func(int) int { return 0 }, 0), btlsm.New(smFabric.Segment(0), 0, 1, func(int) int { return 0 }, 0)
	run("sm.oneway", 8, smA, smB, share)
	smA.Close()
	smB.Close()
	netA, netB := btlnet.New(epA, resolve, 0), btlnet.New(epB, resolve, 0)
	run("net.oneway", 8, netA, netB, share)
	netA.Close()
	netB.Close()

	nonce := runtime.NewJobNonce()
	for _, c := range []struct {
		metric string
		size   int
	}{{"udp.oneway", 8}, {"udp.oneway_16k", 16 << 10}} {
		var cards [2]string
		var mods [2]*btludp.Module
		for r := 0; r < 2; r++ {
			m, err := btludp.New(btludp.Config{
				Rank: r, Nonce: nonce,
				Resolve: func(peer int) (string, error) { return cards[peer], nil },
			})
			if !t.call("btludp.New", err) {
				return udpStats
			}
			mods[r] = m
		}
		cards[0], cards[1] = mods[0].Card(), mods[1].Card()
		run(c.metric, c.size, mods[0], mods[1], share)
		for _, m := range mods {
			s := m.Stats()
			udpStats.Msgs += s.Msgs
			udpStats.RecvMsgs += s.RecvMsgs
			udpStats.Drops += s.Drops
			m.Close()
		}
	}
	return udpStats
}
