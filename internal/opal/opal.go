// Package opal mirrors the role of Open MPI's Open Platform Abstraction
// Layer in the Sessions prototype: it provides the cleanup-callback
// framework and refcounted subsystem initialization that let MPI be
// initialized and finalized multiple times within one process (paper
// §III-B5), plus a small MCA-style component registry.
//
// As MPI objects are created, the subsystems they need are initialized on
// first use and reference-counted thereafter; each subsystem registers a
// cleanup callback when it initializes. When the last reference is released
// and the caller invokes CleanupIfIdle (Open MPI does this when the last
// MPI Session is finalized), the callbacks run in LIFO order and the
// registry resets so the init cycle can begin again.
package opal

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// InitFunc initializes a subsystem and returns its cleanup callback. The
// returned callback may be nil if the subsystem needs no teardown. InitFunc
// may itself acquire other subsystems (dependencies).
type InitFunc func() (cleanup func(), err error)

type subsysState int

const (
	subsysIdle subsysState = iota
	subsysInitializing
	subsysReady
)

type subsystem struct {
	name     string
	state    subsysState
	refs     int
	done     chan struct{} // closed when initialization finishes (either way)
	initErr  error
	genation int // generation at which this subsystem was initialized
}

type cleanupEntry struct {
	name string
	fn   func()
}

// Registry tracks subsystem reference counts and cleanup callbacks for one
// MPI process instance.
type Registry struct {
	mu         sync.Mutex
	subsystems map[string]*subsystem
	cleanups   []cleanupEntry
	generation int // increments every time a full cleanup runs
	// finalizing is non-nil while a finished cycle's cleanups run outside
	// mu, and is closed when they return. A new cycle's Acquire waits on it:
	// re-initializing a subsystem before its stale cleanup has run would
	// let that cleanup tear down the fresh instance.
	finalizing chan struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{subsystems: make(map[string]*subsystem)}
}

// Acquire increments the reference count of the named subsystem,
// initializing it via init if this is the first reference of the current
// init cycle. Concurrent first acquisitions are serialized: later callers
// wait for the in-flight initialization and share its outcome. A failed
// initialization leaves the subsystem idle so a future Acquire can retry.
// An Acquire that races a cleanup waits for the cleanup to finish.
func (r *Registry) Acquire(name string, init InitFunc) error {
	for {
		r.mu.Lock()
		if fin := r.finalizing; fin != nil {
			r.mu.Unlock()
			<-fin
			continue
		}
		s := r.subsystems[name]
		if s == nil {
			s = &subsystem{name: name}
			r.subsystems[name] = s
		}
		switch s.state {
		case subsysReady:
			s.refs++
			r.mu.Unlock()
			return nil
		case subsysInitializing:
			done := s.done
			r.mu.Unlock()
			<-done
			continue // re-examine state
		case subsysIdle:
			s.state = subsysInitializing
			s.done = make(chan struct{})
			r.mu.Unlock()

			cleanup, err := init()

			r.mu.Lock()
			if err != nil {
				s.state = subsysIdle
				s.initErr = err
				close(s.done)
				r.mu.Unlock()
				return fmt.Errorf("opal: init subsystem %q: %w", name, err)
			}
			s.state = subsysReady
			s.refs = 1
			s.initErr = nil
			s.genation = r.generation
			if cleanup != nil {
				r.cleanups = append(r.cleanups, cleanupEntry{name: name, fn: cleanup})
			}
			close(s.done)
			r.mu.Unlock()
			return nil
		}
	}
}

// Release decrements the reference count of the named subsystem. The
// subsystem's cleanup is deferred until CleanupIfIdle observes every
// subsystem at zero references, matching the prototype's behaviour of
// tearing down only when the last MPI Session finalizes.
func (r *Registry) Release(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.subsystems[name]
	if s == nil || s.state != subsysReady || s.refs <= 0 {
		return fmt.Errorf("opal: release of subsystem %q that is not held", name)
	}
	s.refs--
	return nil
}

// Refs returns the current reference count of a subsystem (0 if unknown).
func (r *Registry) Refs(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.subsystems[name]; s != nil {
		return s.refs
	}
	return 0
}

// Idle reports whether every subsystem has zero references.
func (r *Registry) Idle() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.idleLocked()
}

func (r *Registry) idleLocked() bool {
	for _, s := range r.subsystems {
		if s.refs > 0 || s.state == subsysInitializing {
			return false
		}
	}
	return true
}

// CleanupIfIdle runs all registered cleanup callbacks in LIFO order if no
// subsystem is referenced, then resets the registry so subsystems can be
// initialized again. It reports whether cleanup ran; a call that finds
// another cleanup still running leaves it to that one and reports false.
func (r *Registry) CleanupIfIdle() bool {
	r.mu.Lock()
	if r.finalizing != nil || !r.idleLocked() {
		r.mu.Unlock()
		return false
	}
	for _, s := range r.subsystems {
		s.state = subsysIdle
		s.done = nil
	}
	r.generation++
	r.unlockAndRunCleanups()
	return true
}

// unlockAndRunCleanups is called with mu held. It takes the cycle's
// cleanups, releases mu, and runs them in LIFO order, holding off every
// Acquire until they have returned.
func (r *Registry) unlockAndRunCleanups() {
	entries := r.cleanups
	r.cleanups = nil
	fin := make(chan struct{})
	r.finalizing = fin
	r.mu.Unlock()

	for i := len(entries) - 1; i >= 0; i-- {
		entries[i].fn()
	}

	r.mu.Lock()
	r.finalizing = nil
	r.mu.Unlock()
	close(fin)
}

// ForceReset abandons the current init cycle regardless of reference
// counts: every registered cleanup runs in LIFO order and all subsystems
// return to idle so they can be initialized again. It exists for the
// respawn path — a crashed process never releases its references, so its
// resources (mailboxes, endpoints, server connections) would otherwise leak
// forever. Unlike CleanupIfIdle the generation does NOT advance: a forced
// reset abandons the cycle rather than completing it, and the replacement
// incarnation must come up in the same generation as the surviving peers it
// rejoins (generation-scoped modex keys). The caller guarantees no
// concurrent Acquire/Release is in flight.
func (r *Registry) ForceReset() {
	r.mu.Lock()
	for _, s := range r.subsystems {
		s.state = subsysIdle
		s.refs = 0
		s.done = nil
	}
	r.unlockAndRunCleanups()
}

// Generation returns how many full cleanup cycles have completed; tests use
// it to verify re-initialization actually re-ran subsystem init.
func (r *Registry) Generation() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.generation
}

// Component is one MCA component: a pluggable implementation of a framework
// interface (e.g. the "ob1" component of the "pml" framework).
type Component struct {
	Name     string
	Priority int // higher wins during selection

	// ExplicitOnly components join a selection only when named in an
	// include list ("udp", "sm,udp"); the default spec "" and exclude
	// specs ("^sm") skip them. Transports that claim real OS resources
	// per instance (sockets) register this way so that huge simulated
	// jobs do not bind thousands of sockets nobody asked for.
	ExplicitOnly bool
}

// MCA is a miniature Modular Component Architecture registry. Opening a
// framework charges the modeled cost of loading each component's shared
// object, which the paper identifies as the dominant absolute cost of MPI
// initialization on its NFS-installed systems.
type MCA struct {
	mu         sync.Mutex
	frameworks map[string][]Component
	loadCost   func(nComponents int)
	opened     map[string]bool
}

// NewMCA builds a registry; loadCost (may be nil) is invoked with the number
// of components whenever a framework is opened for the first time.
func NewMCA(loadCost func(nComponents int)) *MCA {
	return &MCA{
		frameworks: make(map[string][]Component),
		loadCost:   loadCost,
		opened:     make(map[string]bool),
	}
}

// Register adds a component to a framework.
func (m *MCA) Register(framework string, c Component) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frameworks[framework] = append(m.frameworks[framework], c)
}

// Open returns a framework's components ordered by descending priority,
// charging the component-load cost on first open. Unknown frameworks return
// an error: asking for a framework that was never registered is a bug.
func (m *MCA) Open(framework string) ([]Component, error) {
	m.mu.Lock()
	comps, ok := m.frameworks[framework]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("opal: unknown MCA framework %q", framework)
	}
	first := !m.opened[framework]
	m.opened[framework] = true
	out := make([]Component, len(comps))
	copy(out, comps)
	loadCost := m.loadCost
	m.mu.Unlock()

	if first && loadCost != nil {
		loadCost(len(out))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out, nil
}

// Select returns the highest-priority component of a framework.
func (m *MCA) Select(framework string) (Component, error) {
	comps, err := m.Open(framework)
	if err != nil {
		return Component{}, err
	}
	if len(comps) == 0 {
		return Component{}, fmt.Errorf("opal: MCA framework %q has no components", framework)
	}
	return comps[0], nil
}

// SelectComponents returns a framework's components filtered by an MCA-style
// include/exclude spec, preserving descending priority order:
//
//	""        every component (default selection)
//	"sm,net"  only the named components — naming an unregistered one errors
//	"^sm"     every component except the named ones
//
// An empty result is an error: the caller asked for a framework and excluded
// every implementation of it.
func (m *MCA) SelectComponents(framework, spec string) ([]Component, error) {
	comps, err := m.Open(framework)
	if err != nil {
		return nil, err
	}
	names, exclude := parseComponentSpec(spec)
	if len(names) > 0 {
		known := make(map[string]bool, len(comps))
		for _, c := range comps {
			known[c.Name] = true
		}
		for n := range names {
			if !known[n] {
				return nil, fmt.Errorf("opal: MCA framework %q has no component %q", framework, n)
			}
		}
		kept := comps[:0]
		for _, c := range comps {
			if names[c.Name] == exclude {
				continue
			}
			// In exclude mode a component survives by not being named,
			// which is not an explicit request for it.
			if c.ExplicitOnly && exclude {
				continue
			}
			kept = append(kept, c)
		}
		comps = kept
	} else {
		kept := comps[:0]
		for _, c := range comps {
			if !c.ExplicitOnly {
				kept = append(kept, c)
			}
		}
		comps = kept
	}
	if len(comps) == 0 {
		return nil, fmt.Errorf("opal: MCA framework %q selection %q excludes every component", framework, spec)
	}
	return comps, nil
}

// parseComponentSpec splits an include/exclude list: a leading '^' flips the
// whole spec to an exclusion, matching Open MPI's mca parameter syntax.
func parseComponentSpec(spec string) (names map[string]bool, exclude bool) {
	if spec == "" {
		return nil, false
	}
	if spec[0] == '^' {
		exclude = true
		spec = spec[1:]
	}
	names = make(map[string]bool)
	for _, n := range strings.Split(spec, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names[n] = true
		}
	}
	return names, exclude
}

// ResetOpened clears the per-framework "opened" flags, used when an MPI
// instance fully finalizes so the next init cycle pays component-load costs
// again (the prototype dlcloses components at teardown).
func (m *MCA) ResetOpened() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.opened = make(map[string]bool)
}
