package main

import (
	"testing"
	"time"
)

func TestNormalisationAgainstReferenceKernel(t *testing.T) {
	// Median kernel 2 ms: the host runs at half the reference speed, so
	// raw times halve when expressed at the 1 ms reference kernel.
	nz := newNormaliser([]time.Duration{4 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond})
	if nz.kernel != 2*time.Millisecond {
		t.Fatalf("kernel median = %v, want 2ms", nz.kernel)
	}
	if got := nz.norm(10 * time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("norm(10ms) = %v, want 5ms", got)
	}

	r := newRecorder()
	r.kernels = append(r.kernels, 2*time.Millisecond, 2*time.Millisecond)
	for i := 0; i < 10; i++ {
		r.add(opRecord{raw: 4 * time.Millisecond, n: 1, units: 8}, true)
	}
	s := r.summarize()
	// 80 units over 40 ms raw CPU, 20 ms normalised CPU.
	if s.RawThroughputPerCPUs != 2000 || s.ThroughputPerCPUs != 4000 {
		t.Fatalf("throughput raw %v normalised %v, want 2000 and 4000", s.RawThroughputPerCPUs, s.ThroughputPerCPUs)
	}
	if s.RawP50 != 4*time.Millisecond || s.P50 != 2*time.Millisecond {
		t.Fatalf("p50 raw %v normalised %v, want 4ms and 2ms", s.RawP50, s.P50)
	}
}

func TestNormalisationWithoutKernelSamplesIsIdentity(t *testing.T) {
	nz := newNormaliser(nil)
	if got := nz.norm(3 * time.Millisecond); got != 3*time.Millisecond {
		t.Fatalf("norm without kernel samples = %v, want the raw 3ms", got)
	}
}

func TestPercentilesWithSampleCounts(t *testing.T) {
	r := newRecorder()
	r.kernels = append(r.kernels, refKernelTime)
	for i := 100; i >= 1; i-- {
		r.add(opRecord{raw: time.Duration(i) * time.Millisecond, n: 1, units: 1}, true)
	}
	s := r.summarize()
	if s.Samples != 100 {
		t.Fatalf("samples = %d, want 100", s.Samples)
	}
	if s.P50 != 50*time.Millisecond || s.P90 != 90*time.Millisecond {
		t.Fatalf("p50 %v p90 %v, want 50ms and 90ms", s.P50, s.P90)
	}
	for _, c := range []struct {
		xs   []time.Duration
		p    float64
		want time.Duration
	}{
		{nil, 50, 0},
		{[]time.Duration{7}, 90, 7},
		{[]time.Duration{3, 1, 2}, 50, 2},
		{[]time.Duration{3, 1, 2}, 90, 3},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestFailRatioAccounting(t *testing.T) {
	r := newRecorder()
	// A libc-sweep style group: one record stands for 8 probes.
	r.add(opRecord{raw: 8 * time.Millisecond, n: 8, units: 8}, false)
	r.add(opRecord{raw: time.Millisecond, n: 1, units: 1}, true)
	r.add(opRecord{raw: time.Millisecond, n: 1, units: 1}, true)
	s := r.summarize()
	if s.Attempted != 10 || s.Failed != 8 {
		t.Fatalf("attempted %d failed %d, want 10 and 8", s.Attempted, s.Failed)
	}
	if got := s.FailRatio(); got != 0.8 {
		t.Fatalf("fail ratio = %v, want 0.8", got)
	}
	if (summary{}).FailRatio() != 0 {
		t.Fatal("fail ratio of an empty run is not 0")
	}
}

func TestFailedOperationsAreNotLatencySamples(t *testing.T) {
	r := newRecorder()
	r.kernels = append(r.kernels, refKernelTime)
	for i := 0; i < 9; i++ {
		r.add(opRecord{raw: time.Millisecond, n: 1, units: 1, alloc: 1024}, true)
	}
	// A failed operation far slower than the rest must not move the
	// percentiles, but still counts as attempted work and CPU.
	r.add(opRecord{raw: time.Second, n: 1, units: 1, alloc: 1024}, false)
	s := r.summarize()
	if s.Samples != 9 {
		t.Fatalf("samples = %d, want 9", s.Samples)
	}
	if s.P90 != time.Millisecond {
		t.Fatalf("p90 = %v, want 1ms: the failed operation leaked into the samples", s.P90)
	}
	if s.Attempted != 10 || s.Failed != 1 || s.Units != 10 {
		t.Fatalf("attempted %d failed %d units %d, want 10, 1, 10", s.Attempted, s.Failed, s.Units)
	}
	if s.AllocPerOp != 1024 {
		t.Fatalf("alloc per op = %v, want 1024", s.AllocPerOp)
	}
	if want := 10 / (time.Second + 9*time.Millisecond).Seconds(); s.ThroughputPerCPUs != want {
		t.Fatalf("throughput = %v, want %v", s.ThroughputPerCPUs, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{}
	// Parent 0..10 ms CPU with a child covering 2..6 ms.
	tr.spans = []span{
		{Name: "parent", Parent: -1, CPUStart: 0, CPUEnd: 10e6, Start: 0, End: 20e6, N: 1},
		{Name: "child", Parent: 0, CPUStart: 2e6, CPUEnd: 6e6, Start: 2e6, End: 8e6, N: 4},
	}
	l := tr.layers()
	if p := l["parent"]; p.SelfCPU != 6*time.Millisecond || p.PerCall() != 6e6 || p.WallPerCall() != 20e6 {
		t.Fatalf("parent %+v: want 6ms self CPU and 20ms wall per call", p)
	}
	if c := l["child"]; c.SelfCPU != 4*time.Millisecond || c.PerCall() != 1e6 {
		t.Fatalf("child %+v: want 4ms self CPU over 4 calls", c)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	tr.setOp(1)
	tr.end(tr.begin("x"), 1)
	tr.addSpan(span{Name: "y"})
}
