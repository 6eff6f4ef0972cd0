package main

import (
	"math"
	"sort"
	"time"
)

// refKernelTime is the kernel time every normalised CPU figure is
// expressed at: a raw CPU time t measured in a run whose reference
// kernel took k (median) is reported as t × refKernelTime / k. Keep it
// fixed, like the kernel itself.
const refKernelTime = time.Millisecond

// normaliser converts raw CPU times into reference-speed CPU times.
type normaliser struct {
	kernel time.Duration // median reference-kernel time of the run
}

func newNormaliser(kernelSamples []time.Duration) normaliser {
	return normaliser{kernel: medianDuration(kernelSamples)}
}

// scale is the factor from raw to normalised time.
func (n normaliser) scale() float64 {
	if n.kernel <= 0 {
		return 1
	}
	return float64(refKernelTime) / float64(n.kernel)
}

func (n normaliser) norm(d time.Duration) time.Duration {
	return time.Duration(float64(d) * n.scale())
}

// opRecord is one timed unit of a workload: n operations that took raw
// process CPU and allocated alloc heap bytes together (n > 1 only for
// libc-sweep, where one function's probes are timed as a group) and
// completed units of work.
type opRecord struct {
	raw    time.Duration
	n      int
	units  int
	alloc  uint64
	failed bool
}

// recorder collects a run's operation records and kernel samples.
// Buffers are preallocated so appending does not allocate in the
// measured loop.
type recorder struct {
	ops     []opRecord
	kernels []time.Duration
}

func newRecorder() *recorder {
	return &recorder{ops: make([]opRecord, 0, 1<<16), kernels: make([]time.Duration, 0, 1<<12)}
}

// add records o, failed unless ok.
func (r *recorder) add(o opRecord, ok bool) {
	o.failed = !ok
	r.ops = append(r.ops, o)
}

// summary is a workload run's end-to-end figures.
type summary struct {
	Attempted int
	Failed    int
	// Samples is the number of latency samples: successful records.
	Samples int
	Units   int
	Kernel  time.Duration
	// KernelSamples is the number of reference-kernel runs.
	KernelSamples int
	// AllocPerOp is heap bytes allocated per attempted operation.
	AllocPerOp float64
	// Normalised figures.
	ThroughputPerCPUs float64
	P50, P90          time.Duration
	// Raw figures, beside the normalised ones so host drift shows.
	RawThroughputPerCPUs float64
	RawP50, RawP90       time.Duration
}

// FailRatio is failed operations over attempted ones.
func (s summary) FailRatio() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return float64(s.Failed) / float64(s.Attempted)
}

// summarize folds the records. Every record counts towards attempted,
// failed, units and throughput CPU; only successful records are latency
// samples, each the record's per-operation CPU.
func (r *recorder) summarize() summary {
	nz := newNormaliser(r.kernels)
	var s summary
	s.Kernel = nz.kernel
	s.KernelSamples = len(r.kernels)
	var cpu time.Duration
	var alloc uint64
	lat := make([]time.Duration, 0, len(r.ops))
	for _, o := range r.ops {
		s.Attempted += o.n
		s.Units += o.units
		cpu += o.raw
		alloc += o.alloc
		if o.failed {
			s.Failed += o.n
			continue
		}
		lat = append(lat, o.raw/time.Duration(o.n))
	}
	s.Samples = len(lat)
	if s.Attempted > 0 {
		s.AllocPerOp = float64(alloc) / float64(s.Attempted)
	}
	if cpu > 0 {
		s.RawThroughputPerCPUs = float64(s.Units) / cpu.Seconds()
		s.ThroughputPerCPUs = float64(s.Units) / nz.norm(cpu).Seconds()
	}
	s.RawP50 = percentile(lat, 50)
	s.RawP90 = percentile(lat, 90)
	s.P50, s.P90 = nz.norm(s.RawP50), nz.norm(s.RawP90)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice). xs is sorted in place.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func medianDuration(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	c := append([]time.Duration(nil), xs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
