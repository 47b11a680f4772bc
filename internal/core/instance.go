// Package core implements the per-process state of the Sessions prototype:
// the refcounted MPI instance that is brought up by the first
// MPI_Session_init (or MPI_Init) of a cycle and torn down — via OPAL
// cleanup callbacks — when the last session of the cycle is finalized,
// ready to be initialized again (paper §III-B5). It also carries the
// communicator-identifier configuration (consensus vs. exCID; §III-B2/3)
// and process-set resolution.
package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gompi/internal/btl"
	btlnet "gompi/internal/btl/net"
	btlsm "gompi/internal/btl/sm"
	btludp "gompi/internal/btl/udp"
	"gompi/internal/coll"
	"gompi/internal/opal"
	"gompi/internal/pmix"
	"gompi/internal/pml"
	"gompi/internal/simnet"
)

// CIDMode selects the communicator-identifier generation scheme.
type CIDMode int

const (
	// CIDConsensus is the baseline Open MPI algorithm: globally consistent
	// 16-bit CIDs agreed by reduction rounds over a parent communicator.
	CIDConsensus CIDMode = iota
	// CIDExtended is the Sessions prototype scheme: per-process local CIDs
	// plus a 128-bit exCID carried by first messages (the paper's default
	// when PMIx group support and the ob1 PML are available).
	CIDExtended
)

func (m CIDMode) String() string {
	if m == CIDConsensus {
		return "consensus"
	}
	return "excid"
}

// Predefined process-set names. The prototype defines three defaults
// (§III-B6); additional psets come from the runtime.
const (
	PsetWorld  = "mpi://world"
	PsetSelf   = "mpi://self"
	PsetShared = "mpi://shared"
)

// PsetAlive is the reserved dynamic process set: the job's ranks minus
// every rank known to have terminated, re-resolved on every query from the
// pmix client's terminated-rank view (kept current by failure and restart
// notifications). "gompi://alive/<base>" derives the live subset of any
// other pset the same way.
const (
	PsetAlive       = "gompi://alive"
	psetAlivePrefix = PsetAlive + "/"
)

// IsDynamicPset reports whether name denotes a dynamic pset — one whose
// membership is recomputed from liveness state at every resolution rather
// than snapshotted once.
func IsDynamicPset(name string) bool {
	l := strings.ToLower(name)
	return l == PsetAlive || strings.HasPrefix(l, psetAlivePrefix)
}

// DynamicPsetBase returns the static pset a dynamic name derives from
// (PsetWorld for the bare PsetAlive) and whether name was dynamic at all.
func DynamicPsetBase(name string) (string, bool) {
	l := strings.ToLower(name)
	if l == PsetAlive {
		return PsetWorld, true
	}
	if strings.HasPrefix(l, psetAlivePrefix) {
		return name[len(psetAlivePrefix):], true
	}
	return name, false
}

// Config tunes one MPI process instance.
type Config struct {
	// CIDMode selects consensus (baseline) or exCID (Sessions prototype)
	// communicator identifiers.
	CIDMode CIDMode
	// PML selects the point-to-point component ("ob1" by default). The
	// prototype implemented exCID tag matching only in ob1 (§III-B4); with
	// any other PML the library falls back to the consensus algorithm and
	// Sessions communicator constructors are unavailable, mirroring the
	// paper's fallback rule.
	PML string
	// BTL is an MCA-style include/exclude list selecting the byte-transfer
	// modules the PML may route peers through, mirroring the PML switch:
	// "" selects every registered transport in priority order (sm preferred
	// for intra-node peers, net for the rest), "net" forces everything over
	// the fabric, "^sm" disables the shared-memory fast path.
	BTL string
	// Coll is an MCA-style include/exclude list selecting the collective
	// decision components, in the same syntax as BTL: "" selects every
	// registered component in priority order (hier, then tuned, then
	// basic), "^hier" disables the topology-aware variants, "basic" pins
	// the simple fixed algorithms.
	Coll string
	// EagerLimit is the PML eager/rendezvous threshold. Zero defers to each
	// transport's own limit (sm advertises a much larger one than net); a
	// positive value overrides every transport.
	EagerLimit int
	// DupUseSubfields, when set, lets Comm.Dup derive the child exCID from
	// the parent's subfields (§III-B3) instead of acquiring a fresh PGCID
	// on every duplication as the measured prototype did (§IV-C2). Off by
	// default to match the paper's Fig. 4 behaviour.
	DupUseSubfields bool
	// Timeout bounds collective runtime operations (group construct,
	// fences). Zero means 60s: long enough for any simulated collective
	// even on a heavily-shared CI host, short enough to fail deadlocked
	// tests before the suite-level timeout.
	Timeout time.Duration
	// MCAComponents is the number of component loads charged at instance
	// bring-up, modelling dlopen cost of the component stack. Zero means
	// DefaultMCAComponents.
	MCAComponents int
	// UDPListen is the listen address for the udp BTL ("127.0.0.1:0" when
	// empty). Only consulted when the selection includes "udp".
	UDPListen string
	// UDPNonce is the job identity stamped into every udp frame; the
	// launcher generates one per job so the receive-path filter can reject
	// datagrams from other jobs or stale runs on a recycled port.
	UDPNonce uint64
	// UDPMTU overrides the udp datagram budget (default 1400 bytes).
	UDPMTU int
	// Trace enables the diagnostic ring buffer (the analogue of MCA
	// verbosity); read it with Instance.Trace().Events().
	Trace bool
}

// DefaultMCAComponents approximates the number of MCA shared objects a
// stock Open MPI build loads at startup.
const DefaultMCAComponents = 40

func (c Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 60 * time.Second
	}
	return c.Timeout
}

// PMLName returns the selected PML component name ("ob1" by default).
func (c Config) PMLName() string {
	if c.PML == "" {
		return "ob1"
	}
	return c.PML
}

// EffectiveCIDMode applies the paper's fallback rule: the exCID generator
// is used exclusively when the ob1 PML is in use; otherwise the original
// consensus algorithm is used.
func (c Config) EffectiveCIDMode() CIDMode {
	if c.CIDMode == CIDExtended && c.PMLName() != "ob1" {
		return CIDConsensus
	}
	return c.CIDMode
}

// Deps are the per-rank wiring an Instance needs from the launcher.
type Deps struct {
	Fabric *simnet.Fabric
	Server *pmix.Server
	Rank   int
	Cfg    Config
}

// Instance is one process's MPI library state. It survives across init
// cycles; Acquire/Release manage the cycle lifetime.
type Instance struct {
	deps  Deps
	reg   *opal.Registry
	mca   *opal.MCA
	trace *opal.Trace

	mu       sync.Mutex
	refs     int // live sessions (incl. the internal WPM session)
	client   *pmix.Client
	engine   *pml.Engine
	collFw   *coll.Framework
	dataAddr simnet.Addr // the fabric identity published for this cycle
	gen      int         // completed teardown cycles
	cidMu    sync.Mutex
	commSeqs map[string]uint64 // per-tag creation counters for pset/group names
}

// NewInstance builds the (uninitialized) library state for one rank.
func NewInstance(d Deps) *Instance {
	inst := &Instance{
		deps:     d,
		reg:      opal.NewRegistry(),
		commSeqs: make(map[string]uint64),
		trace:    opal.NewTrace(512),
	}
	inst.trace.Enable(d.Cfg.Trace)
	inst.mca = opal.NewMCA(func(n int) { d.Fabric.ComponentLoadDelay(n) })
	registerDefaultComponents(inst.mca)
	return inst
}

// Trace returns the instance's diagnostic ring buffer.
func (inst *Instance) Trace() *opal.Trace { return inst.trace }

// registerDefaultComponents mirrors a stock Open MPI component stack.
func registerDefaultComponents(m *opal.MCA) {
	m.Register("pml", opal.Component{Name: "ob1", Priority: 20})
	m.Register("pml", opal.Component{Name: "cm", Priority: 10})
	m.Register("btl", opal.Component{Name: "sm", Priority: 30})
	// udp sits between sm and net: co-located ranks still prefer shared
	// memory, but a peer reachable by business card goes over the real wire
	// before falling back to the simulated fabric. ExplicitOnly keeps huge
	// simulated jobs from binding one OS socket per rank nobody asked for.
	m.Register("btl", opal.Component{Name: "udp", Priority: 25, ExplicitOnly: true})
	m.Register("btl", opal.Component{Name: "net", Priority: 20})
	m.Register("coll", opal.Component{Name: "hier", Priority: 40})
	m.Register("coll", opal.Component{Name: "tuned", Priority: 30})
	m.Register("coll", opal.Component{Name: "basic", Priority: 10})
}

// Rank returns the process's job-global rank.
func (inst *Instance) Rank() int { return inst.deps.Rank }

// JobSize returns the number of ranks in the job.
func (inst *Instance) JobSize() int { return inst.deps.Server.Job().NP }

// Config returns the instance configuration.
func (inst *Instance) Config() Config { return inst.deps.Cfg }

// Fabric returns the fabric the process communicates over.
func (inst *Instance) Fabric() *simnet.Fabric { return inst.deps.Fabric }

// Timeout returns the configured collective timeout.
func (inst *Instance) Timeout() time.Duration { return inst.deps.Cfg.timeout() }

// Generation returns how many full finalize cycles have completed.
func (inst *Instance) Generation() int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.gen
}

// Active reports whether the instance is currently initialized (at least
// one live session).
func (inst *Instance) Active() bool {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.refs > 0
}

// addrKey is the modex key the PML endpoint address is published under.
// It includes the instance generation: a re-initialized instance has a new
// endpoint, and peers of the same cycle must not resolve a stale address.
func addrKey(gen int) string { return fmt.Sprintf("pml.addr.g%d", gen) }

// udpKey is the modex key the udp BTL's business card (its bound UDP
// address) is published under, generation-scoped like addrKey.
func udpKey(gen int) string { return fmt.Sprintf("udp.addr.g%d", gen) }

func encodeAddr(a simnet.Addr) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(a.Node))
	binary.LittleEndian.PutUint32(b[4:], uint32(a.Slot))
	return b[:]
}

func decodeAddr(b []byte) (simnet.Addr, error) {
	if len(b) != 8 {
		return simnet.Addr{}, fmt.Errorf("core: bad endpoint address (%d bytes)", len(b))
	}
	return simnet.Addr{
		Node: int(binary.LittleEndian.Uint32(b[0:])),
		Slot: int(binary.LittleEndian.Uint32(b[4:])),
	}, nil
}

// Acquire brings up (or references) the instance for one new session. The
// first acquisition of a cycle initializes the MCA, the PMIx client, and
// the PML engine, registering their cleanup callbacks; later acquisitions
// just bump reference counts. This is the "local and light-weight"
// initialization MPI_Session_init performs (§III-B6).
func (inst *Instance) Acquire() error {
	if err := inst.reg.Acquire("mca", inst.initMCA); err != nil {
		return err
	}
	if err := inst.reg.Acquire("pmix", inst.initPMIx); err != nil {
		inst.mustRelease("mca")
		return err
	}
	if err := inst.reg.Acquire("coll", inst.initColl); err != nil {
		inst.mustRelease("pmix")
		inst.mustRelease("mca")
		return err
	}
	if err := inst.reg.Acquire("pml", inst.initPML); err != nil {
		inst.mustRelease("coll")
		inst.mustRelease("pmix")
		inst.mustRelease("mca")
		return err
	}
	inst.mu.Lock()
	inst.refs++
	refs := inst.refs
	inst.mu.Unlock()
	inst.trace.Logf("core", "instance acquired (sessions=%d, gen=%d)", refs, inst.reg.Generation())
	return nil
}

func (inst *Instance) mustRelease(name string) {
	if err := inst.reg.Release(name); err != nil {
		panic(fmt.Sprintf("core: inconsistent subsystem refcount: %v", err))
	}
}

func (inst *Instance) initMCA() (func(), error) {
	if _, err := inst.mca.Open("pml"); err != nil {
		return nil, err
	}
	if _, err := inst.mca.Open("btl"); err != nil {
		return nil, err
	}
	if _, err := inst.mca.Open("coll"); err != nil {
		return nil, err
	}
	// Charge the bulk component-load cost (frameworks above model the
	// selection logic; the stack is much bigger than three frameworks).
	n := inst.deps.Cfg.MCAComponents
	if n <= 0 {
		n = DefaultMCAComponents
	}
	inst.deps.Fabric.ComponentLoadDelay(n)
	return func() { inst.mca.ResetOpened() }, nil
}

func (inst *Instance) initPMIx() (func(), error) {
	client := inst.deps.Server.Connect(inst.deps.Rank)
	inst.mu.Lock()
	inst.client = client
	inst.mu.Unlock()
	return func() {
		inst.mu.Lock()
		c := inst.client
		inst.client = nil
		inst.mu.Unlock()
		if c != nil {
			c.Finalize()
		}
	}, nil
}

// initColl selects the collective component chain and builds the
// framework that every communicator of this cycle dispatches through.
func (inst *Instance) initColl() (func(), error) {
	comps, err := inst.mca.SelectComponents("coll", inst.deps.Cfg.Coll)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(comps))
	for i, c := range comps {
		names[i] = c.Name
	}
	fw, err := coll.NewFramework(names, inst.trace)
	if err != nil {
		return nil, err
	}
	inst.mu.Lock()
	inst.collFw = fw
	inst.mu.Unlock()
	return func() {
		inst.mu.Lock()
		inst.collFw = nil
		inst.mu.Unlock()
	}, nil
}

func (inst *Instance) initPML() (func(), error) {
	node := inst.deps.Server.Node()
	comps, err := inst.mca.SelectComponents("btl", inst.deps.Cfg.BTL)
	if err != nil {
		return nil, err
	}
	// The fabric endpoint doubles as the process's published identity, so
	// it exists even when the net BTL is excluded from the selection.
	ep := inst.deps.Fabric.NewEndpoint(node)
	gen := inst.reg.Generation()
	client := inst.Client()
	resolve, dropResolved := cachedResolver(func(rank int) (simnet.Addr, error) {
		// Remote processes are discovered on first communication
		// (add_procs on demand, §III-B1): resolve the peer's endpoint
		// through the runtime.
		raw, err := client.Get(rank, addrKey(gen), inst.Timeout())
		if err != nil {
			return simnet.Addr{}, err
		}
		return decodeAddr(raw)
	})
	var mods []btl.Module
	netUsed := false
	var udpMod *btludp.Module
	for _, c := range comps {
		switch c.Name {
		case "sm":
			// Locality comes from the launcher's placement map, not the
			// modex: peers on this node stay sm-reachable even mid-way
			// through their own finalize/re-initialize cycles, when their
			// current-generation fabric address is unresolvable.
			mods = append(mods, btlsm.New(inst.deps.Fabric.Segment(node), node, inst.deps.Rank, client.NodeOf, 0))
		case "udp":
			um, err := btludp.New(btludp.Config{
				Rank:   inst.deps.Rank,
				Listen: inst.deps.Cfg.UDPListen,
				Nonce:  inst.deps.Cfg.UDPNonce,
				MTU:    inst.deps.Cfg.UDPMTU,
				Resolve: func(rank int) (string, error) {
					card, err := client.Get(rank, udpKey(gen), inst.Timeout())
					if err != nil {
						return "", err
					}
					return string(card), nil
				},
				// Reassembled packets come from the engine's arena and the
				// engine recycles them back into it, closing the loop the
				// packet-ownership contract (btl.Endpoint.Send) describes.
				Alloc: pml.ArenaGet,
				Free:  pml.ArenaPut,
			})
			if err != nil {
				for _, m := range mods {
					m.Close()
				}
				ep.Close()
				return nil, err
			}
			mods = append(mods, um)
			udpMod = um
		case "net":
			mods = append(mods, btlnet.New(ep, resolve, 0))
			netUsed = true
		}
	}
	if len(mods) == 0 {
		ep.Close()
		return nil, fmt.Errorf("core: BTL selection %q matched no usable transport", inst.deps.Cfg.BTL)
	}
	// NewEngine activates the modules — in particular sm registers its
	// node-segment mailbox — before the address is published, so any peer
	// that can resolve us is guaranteed to find the mailbox.
	engine := pml.NewEngine(mods, pml.Config{EagerLimit: inst.deps.Cfg.EagerLimit, Trace: inst.trace})
	closeAll := func() {
		engine.Close()
		if !netUsed {
			ep.Close()
		}
	}

	if err := client.Put(addrKey(gen), encodeAddr(ep.Addr())); err != nil {
		closeAll()
		return nil, err
	}
	if udpMod != nil {
		// The udp business card rides the same commit as the fabric
		// address; the socket is already bound and the progress loop live.
		if err := client.Put(udpKey(gen), []byte(udpMod.Card())); err != nil {
			closeAll()
			return nil, err
		}
	}
	if err := client.Commit(); err != nil {
		closeAll()
		return nil, err
	}
	// Runtime failure events unblock pending point-to-point operations
	// toward the dead process (the §II-C fault-domain behaviour); restart
	// events forget the dead incarnation's cached routes and addresses so
	// new communicators can reach the respawned process.
	hid := client.RegisterEventHandler([]pmix.EventCode{pmix.EventProcTerminated, pmix.EventProcRestarted}, func(ev pmix.Event) {
		switch ev.Code {
		case pmix.EventProcTerminated:
			engine.FailPeer(ev.Source.Rank)
		case pmix.EventProcRestarted:
			dropResolved(ev.Source.Rank)
			engine.RevivePeer(ev.Source.Rank)
		}
	})
	inst.mu.Lock()
	inst.engine = engine
	inst.dataAddr = ep.Addr()
	inst.mu.Unlock()
	return func() {
		client.DeregisterEventHandler(hid)
		inst.mu.Lock()
		e := inst.engine
		inst.engine = nil
		inst.mu.Unlock()
		if e != nil {
			e.Close()
			if !netUsed {
				ep.Close()
			}
		}
	}, nil
}

// cachedResolver memoizes a rank-to-address lookup: several BTL modules
// consult the resolver for the same peer during route selection, and the
// modex answer never changes within a generation — except when the rank is
// respawned, which the second returned function (invalidate) handles.
func cachedResolver(fetch func(int) (simnet.Addr, error)) (resolve func(int) (simnet.Addr, error), invalidate func(int)) {
	var mu sync.Mutex
	addrs := make(map[int]simnet.Addr)
	resolve = func(rank int) (simnet.Addr, error) {
		mu.Lock()
		if a, ok := addrs[rank]; ok {
			mu.Unlock()
			return a, nil
		}
		mu.Unlock()
		a, err := fetch(rank)
		if err != nil {
			return simnet.Addr{}, err
		}
		mu.Lock()
		addrs[rank] = a
		mu.Unlock()
		return a, nil
	}
	invalidate = func(rank int) {
		mu.Lock()
		delete(addrs, rank)
		mu.Unlock()
	}
	return resolve, invalidate
}

// Release drops one session reference. When the last reference goes, the
// cleanup callbacks run (LIFO) and the instance is ready for a fresh cycle.
func (inst *Instance) Release() error {
	inst.mu.Lock()
	if inst.refs <= 0 {
		inst.mu.Unlock()
		return fmt.Errorf("core: release without matching acquire")
	}
	inst.refs--
	last := inst.refs == 0
	inst.mu.Unlock()

	inst.mustRelease("pml")
	inst.mustRelease("coll")
	inst.mustRelease("pmix")
	inst.mustRelease("mca")
	if last {
		if inst.reg.CleanupIfIdle() {
			inst.mu.Lock()
			inst.gen++
			gen := inst.gen
			inst.mu.Unlock()
			inst.trace.Logf("core", "instance fully finalized (cycle %d complete)", gen)
		}
	}
	return nil
}

// ForceTeardown reclaims everything a crashed incarnation still holds. A
// rank that died mid-run never released its sessions, so its subsystem
// refcounts are stuck high and the cleanup callbacks never ran: the PML
// engine leaks (its sm mailbox stays registered — Segment.Register panics
// when the replacement incarnation re-registers the rank), the fabric
// endpoint stays open, and the PMIx client connection lingers. ForceTeardown
// runs the cleanups and zeroes the refcounts, leaving the instance ready for
// a fresh Acquire.
//
// Unlike a clean finalize, the abandoned cycle does not advance the
// generation: the respawned incarnation must publish its addresses under
// the same generation-scoped modex keys its surviving peers resolve.
// Per-tag communicator name counters are also preserved, so post-recovery
// constructions over fresh tags derive the same names on every rank.
//
// The caller guarantees the crashed incarnation's goroutines are gone (its
// abnormal termination has been reported) before calling.
func (inst *Instance) ForceTeardown() {
	inst.reg.ForceReset()
	inst.mu.Lock()
	inst.refs = 0
	inst.mu.Unlock()
	inst.trace.Logf("core", "instance force-torn-down for respawn (gen=%d)", inst.reg.Generation())
}

// Client returns the live PMIx client; nil when not initialized.
func (inst *Instance) Client() *pmix.Client {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.client
}

// Engine returns the live PML engine; nil when not initialized.
func (inst *Instance) Engine() *pml.Engine {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.engine
}

// Coll returns the live collective framework; nil when not initialized.
func (inst *Instance) Coll() *coll.Framework {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.collFw
}

// DataAddr returns the fabric identity published for the current init
// cycle (meaningful only while the instance is active).
func (inst *Instance) DataAddr() simnet.Addr {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.dataAddr
}

// CIDLock serializes communicator construction within the process, as Open
// MPI's global CID lock does.
func (inst *Instance) CIDLock() *sync.Mutex { return &inst.cidMu }

// NextCommSeq disambiguates repeated communicator creations under the same
// string tag (each creation instance needs a distinct PMIx group name).
func (inst *Instance) NextCommSeq(tag string) uint64 {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	inst.commSeqs[tag]++
	return inst.commSeqs[tag]
}

// ResolvePset maps a process-set name to its member ranks. The three
// built-in psets are answered locally; dynamic "gompi://alive" names are
// recomputed from the current terminated-rank view on every call (never
// snapshotted — a pset handle stays coherent across later failures);
// anything else is a runtime query.
func (inst *Instance) ResolvePset(name string) ([]int, error) {
	client := inst.Client()
	if client == nil {
		return nil, fmt.Errorf("core: instance not initialized")
	}
	if base, dyn := DynamicPsetBase(name); dyn {
		ranks, err := inst.ResolvePset(base)
		if err != nil {
			return nil, err
		}
		dead := make(map[int]bool)
		for _, r := range client.TerminatedRanks() {
			dead[r] = true
		}
		alive := make([]int, 0, len(ranks))
		for _, r := range ranks {
			if !dead[r] {
				alive = append(alive, r)
			}
		}
		return alive, nil
	}
	switch strings.ToLower(name) {
	case PsetWorld:
		ranks := make([]int, inst.JobSize())
		for i := range ranks {
			ranks[i] = i
		}
		return ranks, nil
	case PsetSelf:
		return []int{inst.deps.Rank}, nil
	case PsetShared:
		return append([]int(nil), client.LocalRanks()...), nil
	}
	psets, err := client.QueryPsetNames()
	if err != nil {
		return nil, err
	}
	ranks, ok := psets[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown process set %q", name)
	}
	return ranks, nil
}

// PsetNames returns every pset name visible to this process: the built-ins
// plus the runtime-defined sets, sorted with built-ins first.
func (inst *Instance) PsetNames() ([]string, error) {
	client := inst.Client()
	if client == nil {
		return nil, fmt.Errorf("core: instance not initialized")
	}
	psets, err := client.QueryPsetNames()
	if err != nil {
		return nil, err
	}
	names := []string{PsetWorld, PsetSelf, PsetShared, PsetAlive}
	var extra []string
	for name := range psets {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	return append(names, extra...), nil
}
