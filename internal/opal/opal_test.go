package opal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAcquireInitOnce(t *testing.T) {
	r := NewRegistry()
	var inits int
	init := func() (func(), error) { inits++; return nil, nil }
	for i := 0; i < 5; i++ {
		if err := r.Acquire("pml", init); err != nil {
			t.Fatal(err)
		}
	}
	if inits != 1 {
		t.Fatalf("init ran %d times, want 1", inits)
	}
	if got := r.Refs("pml"); got != 5 {
		t.Fatalf("refs = %d, want 5", got)
	}
}

func TestCleanupLIFOOrder(t *testing.T) {
	r := NewRegistry()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		if err := r.Acquire(name, func() (func(), error) {
			return func() { order = append(order, name) }, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := r.Release(name); err != nil {
			t.Fatal(err)
		}
	}
	if !r.CleanupIfIdle() {
		t.Fatal("CleanupIfIdle did not run")
	}
	want := []string{"c", "b", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("cleanup order = %v, want %v", order, want)
		}
	}
}

func TestCleanupDeferredUntilIdle(t *testing.T) {
	r := NewRegistry()
	cleaned := false
	if err := r.Acquire("x", func() (func(), error) { return func() { cleaned = true }, nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.Acquire("y", func() (func(), error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.Release("x"); err != nil {
		t.Fatal(err)
	}
	if r.CleanupIfIdle() {
		t.Fatal("cleanup ran while subsystem y still held")
	}
	if cleaned {
		t.Fatal("cleanup callback invoked early")
	}
	if err := r.Release("y"); err != nil {
		t.Fatal(err)
	}
	if !r.CleanupIfIdle() {
		t.Fatal("cleanup should run once idle")
	}
	if !cleaned {
		t.Fatal("cleanup callback not invoked")
	}
}

func TestReinitializationCycle(t *testing.T) {
	r := NewRegistry()
	var inits, cleans int
	cycle := func() {
		if err := r.Acquire("core", func() (func(), error) {
			inits++
			return func() { cleans++ }, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := r.Release("core"); err != nil {
			t.Fatal(err)
		}
		if !r.CleanupIfIdle() {
			t.Fatal("cleanup did not run")
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if inits != 3 || cleans != 3 {
		t.Fatalf("inits=%d cleans=%d, want 3/3 (re-init after finalize)", inits, cleans)
	}
	if r.Generation() != 3 {
		t.Fatalf("generation = %d, want 3", r.Generation())
	}
}

func TestAcquireInitFailureRetries(t *testing.T) {
	r := NewRegistry()
	boom := errors.New("boom")
	calls := 0
	failing := func() (func(), error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return nil, nil
	}
	if err := r.Acquire("net", failing); !errors.Is(err, boom) {
		t.Fatalf("first acquire err = %v, want boom", err)
	}
	if err := r.Acquire("net", failing); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if got := r.Refs("net"); got != 1 {
		t.Fatalf("refs = %d, want 1", got)
	}
}

func TestReleaseUnheldErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Release("ghost"); err == nil {
		t.Fatal("releasing an unknown subsystem should error")
	}
	if err := r.Acquire("s", func() (func(), error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.Release("s"); err != nil {
		t.Fatal(err)
	}
	if err := r.Release("s"); err == nil {
		t.Fatal("double release should error")
	}
}

func TestConcurrentAcquire(t *testing.T) {
	r := NewRegistry()
	var inits atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = r.Acquire("shared", func() (func(), error) {
				inits.Add(1)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	if inits.Load() != 1 {
		t.Fatalf("init ran %d times under concurrency, want 1", inits.Load())
	}
	if got := r.Refs("shared"); got != 32 {
		t.Fatalf("refs = %d, want 32", got)
	}
}

// TestAcquireWaitsForCleanup pins the cycle boundary: an Acquire that
// arrives while CleanupIfIdle is still running the finished cycle's
// cleanups must not re-initialize the subsystem until they have returned,
// or the stale cleanup would tear down the fresh instance. The cleanup is
// held open until a timer releases it, so an Acquire that does not wait
// runs its init while the cleanup is still blocked.
func TestAcquireWaitsForCleanup(t *testing.T) {
	r := NewRegistry()
	started := make(chan struct{})
	release := make(chan struct{})
	var cleanupReturned atomic.Bool
	if err := r.Acquire("pmix", func() (func(), error) {
		return func() {
			close(started)
			<-release
			cleanupReturned.Store(true)
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Release("pmix"); err != nil {
		t.Fatal(err)
	}
	cleaned := make(chan bool)
	go func() { cleaned <- r.CleanupIfIdle() }()
	<-started

	timer := time.AfterFunc(50*time.Millisecond, func() { close(release) })
	defer timer.Stop()
	initRanEarly := false
	if err := r.Acquire("pmix", func() (func(), error) {
		initRanEarly = !cleanupReturned.Load()
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if initRanEarly {
		t.Fatal("Acquire re-ran init before the previous cycle's cleanup returned")
	}
	if !<-cleaned {
		t.Fatal("CleanupIfIdle did not run")
	}
	if r.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", r.Generation())
	}
}

func TestInitMayAcquireDependencies(t *testing.T) {
	r := NewRegistry()
	err := r.Acquire("top", func() (func(), error) {
		if err := r.Acquire("dep", func() (func(), error) { return nil, nil }); err != nil {
			return nil, err
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Refs("dep") != 1 || r.Refs("top") != 1 {
		t.Fatalf("dep=%d top=%d, want 1/1", r.Refs("dep"), r.Refs("top"))
	}
}

func TestMCASelection(t *testing.T) {
	loads := 0
	m := NewMCA(func(n int) { loads += n })
	m.Register("pml", Component{Name: "ob1", Priority: 20})
	m.Register("pml", Component{Name: "cm", Priority: 10})
	c, err := m.Select("pml")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "ob1" {
		t.Fatalf("selected %q, want ob1 (higher priority)", c.Name)
	}
	if loads != 2 {
		t.Fatalf("load cost charged for %d components, want 2", loads)
	}
	// Second open must not re-charge.
	if _, err := m.Open("pml"); err != nil {
		t.Fatal(err)
	}
	if loads != 2 {
		t.Fatalf("load cost re-charged on second open: %d", loads)
	}
	m.ResetOpened()
	if _, err := m.Open("pml"); err != nil {
		t.Fatal(err)
	}
	if loads != 4 {
		t.Fatalf("load cost not re-charged after reset: %d", loads)
	}
}

func TestMCAUnknownFramework(t *testing.T) {
	m := NewMCA(nil)
	if _, err := m.Open("nope"); err == nil {
		t.Fatal("opening unknown framework should error")
	}
	m.Register("empty", Component{Name: "x"})
	m.frameworks["bare"] = nil
	if _, err := m.Select("bare"); err == nil {
		t.Fatal("selecting from empty framework should error")
	}
}

func TestSelectComponentsIncludeExclude(t *testing.T) {
	m := NewMCA(nil)
	m.Register("btl", Component{Name: "sm", Priority: 30})
	m.Register("btl", Component{Name: "net", Priority: 20})

	// Default: everything, descending priority.
	comps, err := m.SelectComponents("btl", "")
	if err != nil || len(comps) != 2 || comps[0].Name != "sm" || comps[1].Name != "net" {
		t.Fatalf("default selection = %v, %v", comps, err)
	}

	// Include list.
	comps, err = m.SelectComponents("btl", "net")
	if err != nil || len(comps) != 1 || comps[0].Name != "net" {
		t.Fatalf("include = %v, %v", comps, err)
	}
	comps, err = m.SelectComponents("btl", "net,sm")
	if err != nil || len(comps) != 2 || comps[0].Name != "sm" {
		t.Fatalf("include order must stay priority-sorted: %v, %v", comps, err)
	}

	// Exclusion.
	comps, err = m.SelectComponents("btl", "^sm")
	if err != nil || len(comps) != 1 || comps[0].Name != "net" {
		t.Fatalf("exclude = %v, %v", comps, err)
	}

	// Empty result.
	if _, err := m.SelectComponents("btl", "^sm,net"); err == nil {
		t.Fatal("excluding every component should error")
	}

	// Unknown component name.
	if _, err := m.SelectComponents("btl", "bogus"); err == nil {
		t.Fatal("unknown component in spec should error")
	}
	if _, err := m.SelectComponents("btl", "^bogus"); err == nil {
		t.Fatal("unknown component in exclusion should error")
	}

	// Unknown framework.
	if _, err := m.SelectComponents("nope", ""); err == nil {
		t.Fatal("unknown framework should error")
	}
}
