// Command perfbench is gompi's end-to-end benchmark. It runs one named
// workload in this process, with every rank a goroutine on the loopback
// fabric (no modelled delay is spun), checks every output, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics, ending with a
// one-line JSON result. See README.md for the workloads and metrics.
// run.sh builds and runs it from the root of a checkout:
//
//	bash perfbench/run.sh --workload p2p-sm --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gompi/mpi"
	"gompi/runtime"
)

// workload is one named benchmark input.
type workload struct {
	name string
	why  string
	sh   shape
	// session runs the kernel on a working communicator opened once per
	// launch; sessions-churn opens its own every cycle instead.
	session bool
	// procs, when set, lowers GOMAXPROCS below the default of min(nproc, 2).
	// On one P a message hand-off between rank goroutines is a goroutine
	// switch on one thread, not the wake-up of a thread on the other core,
	// whose cost follows the other tenants of a shared host.
	procs  int
	kernel func(in *inputs, np int) kernel
}

var workloads = []workload{
	{
		name: "sessions-churn",
		why:  "mpi/core/pmix/prrte do almost all the work in the paper's repeated init/finalize over 2 nodes; pml carries only a handful of messages",
		// Four nodes made the cycle time swing by up to a half between
		// runs on a loaded 2-core host; two nodes keep the inter-node
		// exchange and stay within a few percent. It stays on two Ps, where
		// its figures held steadier than on one.
		sh: shape{nodes: 2, ppn: 4},
		kernel: func(in *inputs, np int) kernel {
			return newChurn(in, np)
		},
	},
	{
		name:    "p2p-sm",
		why:     "pml and btl/sm do all the work while the control plane is idle; the bypass case for startup changes and the zero-alloc p2p target",
		sh:      shape{nodes: 1, ppn: 2, btl: "sm"},
		session: true,
		// On two Ps its latency and message rate spread by a quarter
		// between runs on a shared 2-core host.
		procs: 1,
		kernel: func(in *inputs, np int) kernel {
			return newP2P(in, 256<<10, 8) // above sm's 64 KiB eager limit
		},
	},
	{
		name:    "coll-mix",
		why:     "many peers, internal tags and fan-in over sm and net, plus the coll schedule engine and its cache, so a pml change that costs fan-in shows",
		sh:      shape{nodes: 2, ppn: 4},
		session: true,
		// On two Ps its collective times spread by a tenth to a fifth
		// between runs on a shared 2-core host.
		procs: 1,
		kernel: func(in *inputs, np int) kernel {
			return newCollMix(in, np)
		},
	},
	{
		name:    "p2p-udp",
		why:     "the only path through btl/udp framing, hashing, filtering and reassembly, over real loopback sockets and the kernel",
		sh:      shape{nodes: 1, ppn: 2, btl: "udp"},
		session: true,
		// On two Ps its tail latency spread by a tenth between runs on a
		// shared 2-core host; the socket path runs fine on one.
		procs: 1,
		kernel: func(in *inputs, np int) kernel {
			// 16 KiB is above udp's 4 KiB eager limit and spans 12 datagrams;
			// a small window keeps bursts inside the socket receive buffer.
			return newP2P(in, 16<<10, 4)
		},
	},
}

// launchesPerSecond sets how many launches the untraced budget is split
// over. Each launch starts fresh rank goroutines and allocates fresh engines
// and buffers, whose placement in memory and on the host's cores changes a
// launch's speed, so a run pools many launches; short launches also let the
// host pace timed around each one follow the host's load closely.
const launchesPerSecond = 8

// setupPerLaunch is the number of set-up launches made before each
// measurement launch; setup_s is their median, each scaled like its launch.
const setupPerLaunch = 1

// tracedSetupLaunches is the number of set-up launches of the traced run.
const tracedSetupLaunches = 15

// e2eKeys are the end-to-end metrics of the result line, in order.
var e2eKeys = []string{"setup_s", "op_p50_us", "op_p90_us", "ops_per_s", "op2_p50_us"}

// outDir is where results and traces are written, inside the checkout.
const outDir = ".bench_build/perfbench"

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "seconds of measurement")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	procs := min(goruntime.NumCPU(), 2)
	if w.procs > 0 {
		procs = min(procs, w.procs)
	}
	goruntime.GOMAXPROCS(procs)
	budget := time.Duration(*seconds) * time.Second

	r := &report{workload: w, seed: *seed, traced: *trace == 1, host: hostStamp()}
	// A lost message blocks its ranks forever; report the run as failed
	// well inside the time a run may take.
	watchdog := time.AfterFunc(min(budget+90*time.Second, 170*time.Second), func() {
		r.t.failed.Add(1)
		r.t.note("watchdog: the run did not finish in time")
		r.finish()
	})
	defer watchdog.Stop()

	if r.traced {
		runTraced(w, r, budget)
	} else {
		runPlain(w, r, budget)
	}
	r.finish()
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// region is one timed part of the measurement launch.
type region struct {
	k  kernel
	g  *gate
	tr *tracer
	c  *counts
}

// launch runs the workload's measurement job: it opens the working
// communicator when the workload has one, runs every region in order on
// every rank, and closes it again.
func launch(w *workload, in *inputs, t *tally, regions []*region) {
	job, err := runtime.NewJob(w.sh.options())
	if !t.call("runtime.NewJob", err) {
		return
	}
	defer job.Shutdown()
	tag, token := in.tag("work"), in.bytes(8)
	err = job.Launch(func(p *mpi.Process) error {
		rank := p.JobRank()
		var st *startup
		if w.session {
			var ok bool
			if st, ok = open(p, t, tag, token, nil, nil); !ok {
				for _, reg := range regions {
					reg.g.abort()
				}
				if st != nil {
					st.close(t, nil)
				}
				return nil
			}
			defer st.close(t, nil)
		}
		for _, reg := range regions {
			x := &rankCtx{rank: rank, p: p, g: reg.g, t: t, tr: reg.tr, c: reg.c}
			if st != nil {
				x.comm = st.comm
			}
			var before rankSnap
			var gb global
			var heap *heapSampler
			begin := func() bool {
				if reg.c != nil {
					before = snapRank(p)
					reg.g.sync()
					if rank == 0 {
						gb = snapGlobal(job.Fabric())
						heap = startHeapSampler(10 * time.Millisecond)
					}
				}
				return reg.g.begin()
			}
			reg.k.run(x, begin)
			if reg.c != nil && !reg.g.isAborted() {
				reg.g.sync()
				if rank == 0 && heap != nil {
					reg.c.heapPeak = heap.end()
					reg.c.addGlobal(gb, snapGlobal(job.Fabric()))
				}
				reg.c.addRank(before, snapRank(p))
			}
		}
		return nil
	})
	t.call("Job.Launch", err)
}

// runPlain is the untraced run: measurement launches, each after one
// set-up launch, so set-up is sampled over the whole run too. Each figure
// is taken per launch, scaled to the reference host pace, and combined
// over the launches.
func runPlain(w *workload, r *report, budget time.Duration) {
	in := newInputs(r.seed)
	n := max(5, int(budget.Seconds())*launchesPerSecond)
	cpus := allowedCPUs()
	var paces []float64
	var raw, scaled [][]figure
	for i := 0; i < n; i++ {
		on, before := cpus, paceOn(cpus)
		if goruntime.GOMAXPROCS(0) == 1 && len(cpus) > 1 {
			// One P runs on one core, which the OS does not leave for
			// being slow: run the launch on the quietest.
			j := slices.Index(before, slices.Min(before))
			on, before = cpus[j:j+1], before[j:j+1]
			pinProcess(on)
		}
		// Set-up launches are spread over the run like the measurement.
		setup := median(setupLaunchTimes(w.sh, in, &r.t, setupPerLaunch, nil, nil)) / 1e9
		k := w.kernel(in, w.sh.np())
		launch(w, in, &r.t, []*region{{k: k, g: newGate(w.sh.np(), budget/time.Duration(n))}})
		pace := max(slices.Max(before), slices.Max(paceOn(on)))
		fs := append([]figure{{name: "setup_s", unit: "s", key: "setup_s", value: setup}}, k.figures()...)
		paces = append(paces, pace)
		raw = append(raw, fs)
		scaled = append(scaled, atPace(fs, pace))
	}
	r.figures = combine(scaled)
	for _, f := range combine(raw) {
		if f.unit != "count" {
			r.figures = append(r.figures, figure{name: "raw." + f.name, unit: f.unit, value: f.value})
		}
	}
	r.figures = append(r.figures,
		figure{name: "host_pace_ns", unit: "ns", value: median(paces)},
		figure{name: "launches", unit: "count", value: float64(n)})
}

// paceRef is the host pace, in ns, the end-to-end figures are scaled to.
// A bare channel round trip on one core of a shared 2-core Xeon host took
// 400-450 ns while no other tenant loaded that core and up to twice as long
// while one did.
const paceRef = 500.0

// atPace scales one launch's figures from the host pace it ran at to
// paceRef: times by paceRef/pace, rates by pace/paceRef; counts stay. Each
// core of a shared host slows by up to a half, on its own, for stretches of
// a second or less as other tenants load it, and a run's share of slowed
// launches differs from run to run; the gompi code and the bare round trip
// slow alike, so the scaled figures keep what the code itself costs.
func atPace(fs []figure, pace float64) []figure {
	out := make([]figure, len(fs))
	for i, f := range fs {
		switch f.unit {
		case "s", "us":
			f.value *= paceRef / pace
		case "1/s", "MB/s":
			f.value *= pace / paceRef
		}
		out[i] = f
	}
	return out
}

// paceTrips is the number of round trips hostPace times.
const paceTrips = 2000

// hostPace times a bare round trip of a value between two goroutines over
// unbuffered channels, in ns: the host pace. It involves no gompi code, so
// it tracks only how fast the core it runs on runs code at the moment.
func hostPace() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	t0 := time.Now()
	for i := 0; i < paceTrips; i++ {
		ping <- i
		<-pong
	}
	d := time.Since(t0)
	close(ping)
	return float64(d) / paceTrips
}

// paceOn times the host pace on each of cpus in turn, with the process
// pinned to it, and leaves the process free to run on all of them. Without
// cpus it times the pace once, wherever the process runs.
func paceOn(cpus []int) []float64 {
	if len(cpus) == 0 {
		return []float64{hostPace()}
	}
	out := make([]float64, len(cpus))
	for i := range cpus {
		pinProcess(cpus[i : i+1])
		out[i] = hostPace()
	}
	pinProcess(cpus)
	return out
}

// combine merges the same figures of several launches: the median of a
// time or rate, the sum of a count.
func combine(perLaunch [][]figure) []figure {
	if len(perLaunch) == 0 {
		return nil
	}
	out := append([]figure(nil), perLaunch[0]...)
	for i := range out {
		var xs []float64
		var sum float64
		for _, fs := range perLaunch {
			if i < len(fs) && fs[i].value > 0 {
				xs = append(xs, fs[i].value)
				sum += fs[i].value
			}
		}
		if out[i].unit == "count" {
			out[i].value = sum
		} else {
			out[i].value = median(xs)
		}
	}
	return out
}

// report is one run's outcome.
type report struct {
	workload *workload
	seed     int64
	traced   bool
	host     map[string]any

	t       tally
	figures []figure // end-to-end numbers (untraced run)
	layers  []figure // per-layer numbers (traced run)
	files   []string

	once sync.Once
}

// finish prints the report and the result line and exits; it runs once,
// from main or from the watchdog.
func (r *report) finish() {
	r.once.Do(func() {
		attempted, failed := r.t.attempted.Load(), r.t.failed.Load()
		correct := failed == 0 && attempted > 0 && r.complete()
		out := bufio.NewWriter(os.Stdout)
		fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%v\n", r.workload.name, r.seed, r.traced)
		fmt.Fprintf(out, "  why: %s\n", r.workload.why)
		keys := make([]string, 0, len(r.host))
		for k := range r.host {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "  host.%s = %v\n", k, r.host[k])
		}
		for _, f := range append(append([]figure(nil), r.figures...), r.layers...) {
			fmt.Fprintf(out, "  %-34s %14.4f %s\n", f.name, f.value, f.unit)
		}
		ratio := 0.0
		if attempted > 0 {
			ratio = float64(failed) / float64(attempted)
		}
		fmt.Fprintf(out, "  %-34s %14.6f (%d failed or wrong of %d calls)\n", "fail_ratio", ratio, failed, attempted)
		if msg := r.t.firstError(); msg != "" {
			fmt.Fprintf(out, "  first failure: %s\n", msg)
		}
		if path, err := r.save(attempted, failed, correct); err == nil {
			r.files = append(r.files, path)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		for _, f := range r.files {
			fmt.Fprintf(out, "  wrote %s\n", f)
		}
		metrics := map[string]any{}
		for _, f := range r.result() {
			metrics[f.key] = map[string]any{"value": f.value, "unit": f.unit}
		}
		line, _ := json.Marshal(map[string]any{
			"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
		})
		fmt.Fprintf(out, "%s\n", line)
		out.Flush()
		if !correct {
			os.Exit(1)
		}
		os.Exit(0)
	})
}

// result is the figures of the result line: the end-to-end keys, or every
// per-layer metric with the trace.
func (r *report) result() []figure {
	var out []figure
	for _, f := range append(append([]figure(nil), r.figures...), r.layers...) {
		if f.key != "" {
			out = append(out, f)
		}
	}
	return out
}

// complete reports whether every metric of the result line was measured.
func (r *report) complete() bool {
	got := map[string]bool{}
	for _, f := range r.result() {
		got[f.key] = f.value != 0 || !strings.HasSuffix(f.key, "_us") && !strings.HasSuffix(f.key, "_s")
	}
	want := e2eKeys
	if r.traced {
		want = layerKeys()
	}
	for _, k := range want {
		if !got[k] {
			r.t.note("metric " + k + " was not measured")
			return false
		}
	}
	return true
}

// save writes the whole report, host stamp included, as JSON.
func (r *report) save(attempted, failed int64, correct bool) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", fmt.Errorf("result: %w", err)
	}
	all := map[string]any{}
	for _, f := range append(append([]figure(nil), r.figures...), r.layers...) {
		all[f.name] = map[string]any{"value": f.value, "unit": f.unit}
	}
	doc, err := json.MarshalIndent(map[string]any{
		"workload": r.workload.name, "why": r.workload.why, "seed": r.seed, "traced": r.traced, "host": r.host,
		"correct": correct, "attempted": attempted, "failed": failed,
		"first_failure": r.t.firstError(), "metrics": all,
	}, "", "  ")
	if err != nil {
		return "", fmt.Errorf("result: %w", err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", r.workload.name, r.seed, btoi(r.traced)))
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return "", fmt.Errorf("result: %w", err)
	}
	return path, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hostStamp records what the numbers were measured on.
func hostStamp() map[string]any {
	h := map[string]any{
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	// run.sh passes the commit when the checkout is a git repository.
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		h["commit"] = c
	}
	return h
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
