// Command perfbench is the HEALERS toolkit's benchmark. It drives one
// named workload through the toolkit's public entry points for a fixed
// time, checks every operation's output, and prints each metric by name
// and unit; the last line of standard output is the result as JSON.
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1
//	perfbench -describe      # print the BENCHMARK.json descriptor
//
// Every CPU time is process CPU (all threads) normalised to a frozen
// reference kernel timed between operations: see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// warmup is how long a run drives its workload before measuring, so
// caches fill and lazy set-up finishes.
const warmup = time.Second

// workloadDef names a workload and says why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	make func() workload
	// failing marks a workload whose operations fail their output check
	// on a known defect of the program. It runs by name and in every
	// traced run's layer-probe phase, but is left out of BENCHMARK.json,
	// whose workloads must run with no failed operation.
	failing bool
}

var workloads = []workloadDef{
	{"libc-sweep", "cold sequential fault-injection sweeps of libc: fresh-process set-up (proc, dynlink, cval image, cmem map) dominates", func() workload { return &libcSweep{} }, false},
	// Every textutil run fails: the robustness wrapper denies the legal
	// strtok(NULL, delim) continuation (README.md, "Known defect").
	{"hardened-app", "stress and textutil under stacked security, robustness and profiling wrappers: gen dispatch, ctypes checks, cmem reads", func() workload { return &hardenedApp{} }, true},
	{"chaos-soak", "rootd windows under 5% chaos with the containment wrapper: journalled writes, rollback, policy decisions", func() workload { return &chaosSoak{} }, false},
	{"fleet-ingest", "profile documents to an in-process collector plus registry fetch and push: the only xmlrep and collect work", func() workload { return &fleetIngest{} }, false},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run")
		workdir  = flag.String("workdir", ".bench_build/work", "directory for span files and scratch files")
		describe = flag.Bool("describe", false, "print the BENCHMARK.json descriptor and exit")
	)
	flag.Parse()
	if *describe {
		if err := printDescriptor(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	def, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{def: def, seed: *seed, measure: time.Duration(*seconds) * time.Second, workdir: *workdir}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, d := range workloads {
		out = append(out, d.Name)
	}
	return out
}

type runConfig struct {
	def     workloadDef
	seed    int64
	measure time.Duration
	workdir string
}

// started is a workload ready to measure.
type started struct {
	w       workload
	setup   []time.Duration // raw CPU of each set-up
	setupNZ normaliser      // from the kernel runs between the set-ups
	release func()
}

// start prepares the inputs, measures set-up and warms up.
func start(cfg runConfig, b *bench) (*started, error) {
	w := cfg.def.make()
	if err := w.prepare(cfg.seed, b); err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", cfg.def.Name, err)
	}
	st := &started{w: w}
	setup, kernels, release, err := measureSetup(w, b.kernel)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.def.Name, err)
	}
	st.setup, st.setupNZ, st.release = setup, newNormaliser(kernels), release
	b.rec = newRecorder()
	if err := b.runFor(w, warmup); err != nil {
		release()
		return nil, err
	}
	return st, nil
}

// liveHeap returns the heap bytes still reachable after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func runUntraced(cfg runConfig) (*result, error) {
	b := newBench(cfg.workdir)
	st, err := start(cfg, b)
	if err != nil {
		return nil, err
	}
	defer st.release()
	b.rec = newRecorder()
	if err := b.runFor(st.w, cfg.measure); err != nil {
		return nil, err
	}
	s := b.rec.summarize()
	// The sample buffers are dropped before the heap is measured; the
	// workload, its inputs and what its set-up built stay live.
	b.rec = nil
	live := liveHeap()
	runtime.KeepAlive(st.w)

	setupRaw := medianDuration(st.setup)
	res := &result{workload: cfg.def.Name, seed: cfg.seed, s: s}
	res.metrics = map[string]float64{
		"setup_s":              st.setupNZ.norm(setupRaw).Seconds(),
		"throughput_per_cpu_s": s.ThroughputPerCPUs,
		"cpu_ms_p50":           ms64(s.P50),
		"cpu_ms_p90":           ms64(s.P90),
		"alloc_kb_per_op":      s.AllocPerOp / 1024,
		"live_heap_mb":         float64(live) / (1 << 20),
		"ok_ratio":             1 - s.FailRatio(),
	}
	res.detail = map[string]any{
		"raw_setup_s":              setupRaw.Seconds(),
		"raw_throughput_per_cpu_s": s.RawThroughputPerCPUs,
		"raw_cpu_ms_p50":           ms64(s.RawP50),
		"raw_cpu_ms_p90":           ms64(s.RawP90),
		"ref_kernel_ms":            ms64(s.Kernel),
		"kernel_samples":           s.KernelSamples,
		"latency_samples":          s.Samples,
		"setup_samples":            len(st.setup),
		"setup_ref_kernel_ms":      ms64(st.setupNZ.kernel),
		"fail_ratio":               s.FailRatio(),
		"gomaxprocs":               runtime.GOMAXPROCS(0),
	}
	return res, nil
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// result is one run's report.
type result struct {
	workload string
	seed     int64
	s        summary
	metrics  map[string]float64
	detail   map[string]any
	traced   bool
}

// print writes the human-readable report, a detail line with the raw
// figures, and the result JSON as the last line.
func (r *result) print(f *os.File) error {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	fmt.Fprintf(f, "workload %s seed %d: %d attempted, %d failed, %d latency samples\n",
		r.workload, r.seed, r.s.Attempted, r.s.Failed, r.s.Samples)
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(f, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	detail, err := json.Marshal(r.detail)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "detail %s\n", detail)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.s.Failed == 0, r.s.Attempted, r.s.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
