package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// kernelEvery is how often the reference kernel runs between
// operations. One kernel run takes about a millisecond, so the kernel
// costs a few percent of a run and yields hundreds of samples.
const kernelEvery = 20 * time.Millisecond

// setupReps is how many times a run constructs what its operations
// need; setup_s is the median, because one cold construction does not
// repeat.
const setupReps = 61

// workload is one named benchmark workload. The benchmark drives it
// from one goroutine in a closed loop: the next operation starts only
// after the previous one has ended.
type workload interface {
	// prepare generates the seeded inputs. It is neither setup nor an
	// operation and is not timed.
	prepare(seed int64, b *bench) error
	// setup builds everything the operations need, replacing any
	// earlier build, and returns the release of the new build.
	setup() (release func(), err error)
	// step runs one operation (libc-sweep: one sweep, whose functions
	// are recorded one by one) and records it in b.
	step(b *bench) error
	// probe runs a fixed set of operations and direct layer calls for
	// the layer-probe phase of a traced run, so every layer metric is
	// measured on every workload. The traced blocks run step alone, so
	// they differ from the untraced ones only by the spans.
	probe(b *bench) error
}

// bench is the state shared by one run.
type bench struct {
	workdir  string
	tr       *tracer   // nil when untraced
	rec      *recorder // set once set-up has been measured
	kernel   *refKernel
	lastKern time.Time
	counters counters
	allocs   []metrics.Sample
}

// counters are layer counts. Operations add to them in every mode;
// runTraced zeroes them before the layer-probe phase, so the reported
// counts cover that phase's fixed set of operations only.
type counters struct {
	probes         int
	denied         uint64
	soakInjected   uint64
	soakContained  uint64
	docBytes       int
	docs           int
	regHits        uint64
	regMisses      uint64
	docsRejected   uint64
	framesRejected uint64
}

func newBench(workdir string) *bench {
	return &bench{
		workdir: workdir,
		kernel:  newRefKernel(),
		allocs:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// maybeKernel runs the reference kernel when one is due.
func (b *bench) maybeKernel() {
	if time.Since(b.lastKern) < kernelEvery {
		return
	}
	b.rec.kernels = append(b.rec.kernels, timeKernel(b.kernel))
	b.lastKern = time.Now()
}

func (b *bench) allocated() uint64 {
	metrics.Read(b.allocs)
	return b.allocs[0].Value.Uint64()
}

// mark is the start of a timed operation.
type mark struct {
	cpu   time.Duration
	alloc uint64
}

func (b *bench) start() mark {
	return mark{alloc: b.allocated(), cpu: processCPU()}
}

// stop ends the operation begun at m: n operations, units of work.
func (b *bench) stop(m mark, n, units int) opRecord {
	cpu := processCPU() - m.cpu
	return opRecord{raw: cpu, n: n, units: units, alloc: b.allocated() - m.alloc}
}

// runFor drives w until d has elapsed, with kernel runs in between.
func (b *bench) runFor(w workload, d time.Duration) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if err := w.step(b); err != nil {
			return err
		}
		b.maybeKernel()
	}
	return nil
}

// measureSetup builds w setupReps times and returns each build's raw
// process CPU and the reference-kernel times taken between the builds,
// which normalise them. The garbage of earlier builds is collected
// before each timed build, so one build does not pay for another.
func measureSetup(w workload, k *refKernel) (times, kernels []time.Duration, release func(), err error) {
	times = make([]time.Duration, 0, setupReps)
	kernels = make([]time.Duration, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if release != nil {
			release()
		}
		runtime.GC()
		kernels = append(kernels, timeKernel(k))
		t0 := processCPU()
		rel, err := w.setup()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, processCPU()-t0)
		release = rel
	}
	return times, kernels, release, nil
}
