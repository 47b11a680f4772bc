package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// share op; where records the rank that made the call, or for a call into
// the runtime daemons (-1 - node).
type span struct {
	Name   string `json:"name"`
	Where  int    `json:"where"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 1 << 18

// tracer keeps spans in memory for the traced run and writes them out when
// the run ends. Spans are recorded by the benchmark around its calls into
// each layer; the program itself is not instrumented.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 4096)}
}

// add records one span and returns its index, or -1 once the trace is full.
func (tr *tracer) add(name string, where int, op int64, parent int, start, end time.Time) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return -1
	}
	tr.spans = append(tr.spans, span{
		Name: name, Where: where, Op: op, Parent: parent,
		Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch)),
	})
	return len(tr.spans) - 1
}

// phases records one rank's startup or churn cycle: an mpi.cycle span and
// one child span per MPI call in it.
func (tr *tracer) phases(rank int, op int64, ph phases) {
	steps := []struct {
		name string
		d    time.Duration
	}{
		{"mpi.session_init", ph.sessionInit},
		{"mpi.group_from_pset", ph.groupFromPset},
		{"mpi.comm_create_from_group", ph.commCreate},
		{"mpi.first_exchange", ph.firstExchange},
		{"mpi.comm_dup", ph.dup},
		{"mpi.comm_free", ph.free},
		{"mpi.session_finalize", ph.finalize},
	}
	var total time.Duration
	for _, s := range steps {
		total += s.d
	}
	parent := tr.add("mpi.cycle", rank, op, -1, ph.at, ph.at.Add(total))
	at := ph.at
	for _, s := range steps {
		tr.add(s.name, rank, op, parent, at, at.Add(s.d))
		at = at.Add(s.d)
	}
}

// durations returns the durations in ns of every span called name.
func (tr *tracer) durations(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// part of it covered by spans called child of the same operation and the
// same place (the layer below, called on that operation's behalf there).
// place maps a span's where to the place it ran, e.g. a rank to its node.
func (tr *tracer) selfTimes(name, child string, place func(where int) int) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	type key struct {
		op    int64
		place int
	}
	kids := map[key][][2]int64{}
	for _, s := range tr.spans {
		if s.Name == child {
			k := key{s.Op, place(s.Where)}
			kids[k] = append(kids[k], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range tr.spans {
		if s.Name != name {
			continue
		}
		ivs := kids[key{s.Op, place(s.Where)}]
		out = append(out, float64(s.End-s.Start-covered(ivs, s.Start, s.End)))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	var clip [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clip = append(clip, [2]int64{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i][0] < clip[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clip {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// write stores the spans as JSON lines under dir and returns the file name.
func (tr *tracer) write(dir, name string) (string, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
