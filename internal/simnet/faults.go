package simnet

import (
	"sync"
	"time"
)

// Fault injection: a per-Fabric, deterministically seeded plan of message
// mishaps, plus scheduled partitions and endpoint kills. Everything here is
// off by default — a Fabric with no plan, no partition and no kill rules
// takes a single mutex-free branch in Send — so the Loopback profile and all
// existing tests are unaffected.
//
// The probabilistic faults (drop, duplicate, extra delay, reorder) draw from
// a splitmix64 stream seeded by FaultPlan.Seed: the same plan applied to the
// same message sequence yields the same verdicts. Concurrent senders
// interleave their draws nondeterministically, so tests that need exact
// replay keep a single sender per fabric; tests that only need "the same
// faults happen with the same frequency" can use any traffic shape.
//
// Drop and partition are aimed at control-plane traffic, which recovers by
// timeout and retry; duplicate and reorder are the interesting faults for
// the data plane, which the PML recovers from via per-peer sequence numbers.
// FaultPlan.Classes selects which plane the probabilistic faults apply to.

// FaultClass selects the traffic a FaultPlan's probabilistic faults target.
type FaultClass uint8

const (
	// FaultCtrl matches control-plane messages (Message.Ctrl != nil):
	// PMIx RPCs, PRRTE daemon exchanges, event notifications.
	FaultCtrl FaultClass = 1 << iota
	// FaultData matches data-plane packets (Message.Payload != nil):
	// PML wire traffic.
	FaultData
)

// FaultAll matches both planes.
const FaultAll = FaultCtrl | FaultData

// FaultPlan describes the probabilistic faults injected on every matching
// Send. Probabilities are in [0,1]; zero disables that fault. A nil plan
// (the default) disables all probabilistic injection.
type FaultPlan struct {
	// Seed initializes the decision stream. The same seed and message
	// sequence reproduce the same faults.
	Seed uint64
	// Classes selects the targeted traffic; zero means FaultAll.
	Classes FaultClass
	// Drop is the probability a message is silently lost. The sender still
	// observes success, as on a real wire.
	Drop float64
	// Dup is the probability a message is delivered twice (the copy is an
	// independent byte sequence, like a retransmitted packet).
	Dup float64
	// Delay is the probability a message is charged DelayBy of extra
	// sender-side latency (a congested link; never reorders same-sender
	// traffic).
	Delay float64
	// DelayBy is the extra latency for delayed messages.
	DelayBy time.Duration
	// Reorder is the probability a message is delivered late and
	// asynchronously, letting traffic sent afterwards overtake it.
	Reorder float64
	// ReorderBy is how late a reordered message arrives; zero defaults to
	// 500µs, comfortably longer than loopback delivery.
	ReorderBy time.Duration
}

func (p *FaultPlan) matches(m Message) bool {
	c := p.Classes
	if c == 0 {
		c = FaultAll
	}
	if m.Ctrl != nil {
		return c&FaultCtrl != 0
	}
	return c&FaultData != 0
}

// FaultStats counts the faults actually injected.
type FaultStats struct {
	Dropped     uint64 // probabilistic drops
	Duplicated  uint64
	Delayed     uint64
	Reordered   uint64
	Partitioned uint64 // messages eaten by an active partition
	Killed      uint64 // kill rules fired
	Revived     uint64 // revive rules fired
}

// killRule closes one endpoint (or a whole node's endpoints, Slot < 0) once
// the fabric has processed After total Send calls.
type killRule struct {
	node, slot int
	after      uint64
	fired      bool
}

// reviveRule is the inverse of a killRule: once the fabric has processed
// After total Send calls, the hook runs (asynchronously, off the sender's
// critical path). The hook typically respawns a previously killed rank via
// the launcher, modeling a resource manager restarting a failed process.
type reviveRule struct {
	after uint64
	fn    func()
	fired bool
}

// faultState hangs off the Fabric; all fields are guarded by mu.
type faultState struct {
	mu      sync.Mutex //gompilint:lockorder rank=50
	plan    *FaultPlan
	rng     uint64
	part    map[int]int // node → partition group; nil when healed
	kills   []killRule
	revives []reviveRule
	sends   uint64 // Send calls observed while faults were active
	stats   FaultStats
}

// splitmix64: one 64-bit state word, passes BigCrush, and trivially seeded —
// exactly what a reproducible decision stream needs.
func (fs *faultState) rand() float64 {
	fs.rng += 0x9e3779b97f4a7c15
	z := fs.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// SetFaultPlan installs (or, with nil, removes) the fabric's probabilistic
// fault plan and resets the decision stream to the plan's seed.
func (f *Fabric) SetFaultPlan(p *FaultPlan) {
	fs := &f.faults
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.plan = p
	if p != nil {
		fs.rng = p.Seed
	}
	f.faultsOn.Store(f.faultsActiveLocked())
}

// Partition splits the listed nodes into isolated groups: a message between
// nodes in different groups is silently eaten. Nodes not listed in any group
// communicate freely with everyone. Partition replaces any previous
// partition; Heal removes it.
func (f *Fabric) Partition(groups ...[]int) {
	fs := &f.faults
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.part = make(map[int]int)
	for g, nodes := range groups {
		for _, n := range nodes {
			fs.part[n] = g
		}
	}
	f.faultsOn.Store(f.faultsActiveLocked())
}

// Heal removes the active partition.
func (f *Fabric) Heal() {
	fs := &f.faults
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.part = nil
	f.faultsOn.Store(f.faultsActiveLocked())
}

// KillAfter schedules the endpoint at addr to be closed — modeling its
// process dying mid-run — once the fabric has processed afterSends total
// Send calls (0 = on the very next send). A negative Slot kills every
// endpoint currently on the node.
func (f *Fabric) KillAfter(addr Addr, afterSends uint64) {
	fs := &f.faults
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.kills = append(fs.kills, killRule{node: addr.Node, slot: addr.Slot, after: afterSends})
	f.faultsOn.Store(true)
}

// ReviveAfter schedules fn to run — in its own goroutine — once the fabric
// has processed afterSends total Send calls (0 = on the very next send). It
// is the inverse of KillAfter: the fault plan's way of bringing a killed
// rank back mid-run. fn runs off the sending goroutine, so it may safely
// relaunch processes, register endpoints, or block.
func (f *Fabric) ReviveAfter(afterSends uint64, fn func()) {
	fs := &f.faults
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.revives = append(fs.revives, reviveRule{after: afterSends, fn: fn})
	f.faultsOn.Store(true)
}

// FaultStats returns a snapshot of the injected-fault counters.
func (f *Fabric) FaultStats() FaultStats {
	fs := &f.faults
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// faultsActiveLocked reports whether any fault source is live; caller holds
// faults.mu.
func (f *Fabric) faultsActiveLocked() bool {
	fs := &f.faults
	if fs.plan != nil || fs.part != nil {
		return true
	}
	for _, k := range fs.kills {
		if !k.fired {
			return true
		}
	}
	for _, r := range fs.revives {
		if !r.fired {
			return true
		}
	}
	return false
}

// verdict is the fault decision for one Send.
type verdict struct {
	drop       bool
	dup        bool
	extraDelay time.Duration
	reorderLag time.Duration
	kill       []*Endpoint
}

// faultVerdict decides what happens to one message. The fast path — no
// faults configured — is a single atomic load.
func (f *Fabric) faultVerdict(src, dst Addr, m Message) verdict {
	if !f.faultsOn.Load() {
		return verdict{}
	}
	fs := &f.faults
	fs.mu.Lock()
	fs.sends++
	var v verdict
	var killAddrs []Addr
	if len(fs.kills) > 0 {
		for i := range fs.kills {
			k := &fs.kills[i]
			if !k.fired && fs.sends > k.after {
				k.fired = true
				killAddrs = append(killAddrs, Addr{Node: k.node, Slot: k.slot})
			}
		}
	}
	var reviveFns []func()
	if len(fs.revives) > 0 {
		for i := range fs.revives {
			r := &fs.revives[i]
			if !r.fired && fs.sends > r.after {
				r.fired = true
				reviveFns = append(reviveFns, r.fn)
			}
		}
	}
	if fs.part != nil {
		sg, sok := fs.part[src.Node]
		dg, dok := fs.part[dst.Node]
		if sok && dok && sg != dg {
			v.drop = true
			fs.stats.Partitioned++
		}
	}
	if p := fs.plan; p != nil && p.matches(m) {
		// Draw in a fixed order regardless of which faults are enabled so
		// the decision stream stays aligned across plan variations.
		rDrop, rDup, rDelay, rReorder := fs.rand(), fs.rand(), fs.rand(), fs.rand()
		if !v.drop && rDrop < p.Drop {
			v.drop = true
			fs.stats.Dropped++
		}
		if !v.drop {
			if rDup < p.Dup {
				v.dup = true
				fs.stats.Duplicated++
			}
			if rDelay < p.Delay {
				v.extraDelay = p.DelayBy
				fs.stats.Delayed++
			}
			if rReorder < p.Reorder {
				v.reorderLag = p.ReorderBy
				if v.reorderLag <= 0 {
					v.reorderLag = 500 * time.Microsecond
				}
				fs.stats.Reordered++
			}
		}
	}
	if killAddrs != nil {
		fs.stats.Killed += uint64(len(killAddrs))
	}
	if reviveFns != nil {
		fs.stats.Revived += uint64(len(reviveFns))
	}
	if killAddrs != nil || reviveFns != nil {
		f.faultsOn.Store(f.faultsActiveLocked())
	}
	fs.mu.Unlock()

	// Revive hooks run asynchronously: respawning a rank does fabric and
	// launcher work of its own and must not ride on this sender's stack.
	for _, fn := range reviveFns {
		go fn()
	}

	// Resolve and close outside faults.mu: Close takes the endpoint lock
	// and lookup takes the fabric lock.
	for _, a := range killAddrs {
		if a.Slot >= 0 {
			if ep := f.lookup(a); ep != nil {
				v.kill = append(v.kill, ep)
			}
			continue
		}
		f.mu.Lock()
		if a.Node >= 0 && a.Node < len(f.nodes) {
			for _, ep := range f.nodes[a.Node] {
				if ep != nil {
					v.kill = append(v.kill, ep)
				}
			}
		}
		f.mu.Unlock()
	}
	return v
}
