package main

import (
	goruntime "runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"gompi/internal/simnet"
	"gompi/mpi"
)

// counts are the deltas of the program's public counter snapshots taken
// around one timed region, summed over ranks.
type counts struct {
	mu     sync.Mutex
	pml    mpi.PMLStats
	btl    map[string]mpi.TransportStats
	coll   map[string]uint64
	fabric simnet.Stats

	mallocs, allocBytes, gcs uint64
	elapsed                  time.Duration
	heapPeak                 uint64 // set by the region's heap sampler
}

func newCounts() *counts {
	return &counts{btl: map[string]mpi.TransportStats{}, coll: map[string]uint64{}}
}

// rankSnap is one rank's counter snapshot.
type rankSnap struct {
	pml  mpi.PMLStats
	btl  map[string]mpi.TransportStats
	coll mpi.CollStats
}

func snapRank(p *mpi.Process) rankSnap {
	return rankSnap{pml: p.PMLStatsSnapshot(), btl: p.BTLStatsSnapshot(), coll: p.CollStatsSnapshot()}
}

// addRank adds the change between two snapshots of one rank.
func (c *counts) addRank(before, after rankSnap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addPML(before.pml, after.pml)
	for name, a := range after.btl {
		b := before.btl[name]
		s := c.btl[name]
		s.Msgs += a.Msgs - b.Msgs
		s.Bytes += a.Bytes - b.Bytes
		s.RecvMsgs += a.RecvMsgs - b.RecvMsgs
		s.RecvBytes += a.RecvBytes - b.RecvBytes
		s.Drops += a.Drops - b.Drops
		c.btl[name] = s
	}
	for k, a := range after.coll {
		c.coll[k] += a - before.coll[k]
	}
}

// addPMLTotal adds counters of an engine that lived only inside the region.
func (c *counts) addPMLTotal(s mpi.PMLStats) {
	c.mu.Lock()
	c.addPML(mpi.PMLStats{}, s)
	c.mu.Unlock()
}

func (c *counts) addPML(b, a mpi.PMLStats) {
	c.pml.FastSent += a.FastSent - b.FastSent
	c.pml.ExtSent += a.ExtSent - b.ExtSent
	c.pml.AcksSent += a.AcksSent - b.AcksSent
	c.pml.AcksReceived += a.AcksReceived - b.AcksReceived
	c.pml.Rendezvous += a.Rendezvous - b.Rendezvous
	c.pml.PostedHits += a.PostedHits - b.PostedHits
	c.pml.UnexpectedHits += a.UnexpectedHits - b.UnexpectedHits
}

// pmlMsgs is the number of messages the PML sent in the region.
func (c *counts) pmlMsgs() uint64 { return c.pml.FastSent + c.pml.ExtSent }

// collOps is the number of collective invocations counted by the framework
// ("op/algo" keys) plus persistent starts.
func (c *counts) collOps() uint64 {
	var n uint64
	for k, v := range c.coll {
		if strings.Contains(k, "/") && !strings.HasPrefix(k, "steps/") {
			n += v
		}
	}
	return n + c.coll["persistent_starts"]
}

func (c *counts) collSteps() uint64 {
	var n uint64
	for k, v := range c.coll {
		if strings.HasPrefix(k, "steps/") {
			n += v
		}
	}
	return n
}

// global takes the process-wide snapshots: fabric counters and Go memory
// statistics. It stops the world briefly, so it runs outside timed work.
type global struct {
	at     time.Time
	fabric simnet.Stats
	mem    goruntime.MemStats
}

func snapGlobal(f *simnet.Fabric) global {
	g := global{at: time.Now()}
	if f != nil {
		g.fabric = f.Stats()
	}
	goruntime.ReadMemStats(&g.mem)
	return g
}

func (c *counts) addGlobal(b, a global) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fabric.Messages += a.fabric.Messages - b.fabric.Messages
	c.fabric.Bytes += a.fabric.Bytes - b.fabric.Bytes
	c.fabric.IntraNodeMsgs += a.fabric.IntraNodeMsgs - b.fabric.IntraNodeMsgs
	c.fabric.InterNodeMsgs += a.fabric.InterNodeMsgs - b.fabric.InterNodeMsgs
	c.mallocs += a.mem.Mallocs - b.mem.Mallocs
	c.allocBytes += a.mem.TotalAlloc - b.mem.TotalAlloc
	c.gcs += uint64(a.mem.NumGC - b.mem.NumGC)
	c.elapsed += a.at.Sub(b.at)
}

// heapSampler records the peak in-use heap while a region runs, reading
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var peak uint64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler, waits for it to exit and returns the peak.
func (h *heapSampler) end() uint64 {
	close(h.stop)
	return <-h.done
}
