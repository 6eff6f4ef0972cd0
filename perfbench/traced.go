package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// spanMetrics maps each per-layer metric measured from spans to its
// span name and how the per-call time is read: normalised self CPU, or
// wall time for the exchanges that wait on the collector.
var spanMetrics = []struct {
	metric, span string
	unit         time.Duration
	wall         bool
}{
	{"proc.start.cpu_us", "proc.start", time.Microsecond, false},
	{"dynlink.load.cpu_us", "dynlink.load", time.Microsecond, false},
	{"cval.new_env.cpu_us", "cval.new_env", time.Microsecond, false},
	{"ctypes.satisfied_level.cpu_us", "ctypes.satisfied_level", time.Microsecond, false},
	{"inject.func_campaign.cpu_ms", "inject.func_campaign", time.Millisecond, false},
	{"proc.start_stacked.cpu_us", "proc.start_stacked", time.Microsecond, false},
	{"proc.run.cpu_ms", "proc.run", time.Millisecond, false},
	{"clib.call.ns", "clib.call", time.Nanosecond, false},
	{"gen.wrapped_call.ns", "gen.wrapped_call", time.Nanosecond, false},
	{"ctypes.cstring_len.ns", "ctypes.cstring_len", time.Nanosecond, false},
	{"cmem.mapped_len.ns", "cmem.mapped_len", time.Nanosecond, false},
	{"cmem.cstrlen.ns", "cmem.cstrlen", time.Nanosecond, false},
	{"core.run_soak.cpu_ms", "core.run_soak", time.Millisecond, false},
	{"cmem.journal_rollback.cpu_us", "cmem.journal_rollback", time.Microsecond, false},
	{"wrappers.policy_decide.ns", "wrappers.policy_decide", time.Nanosecond, false},
	{"gen.state_sync.cpu_us", "gen.state_sync", time.Microsecond, false},
	{"xmlrep.new_profile_log.cpu_us", "xmlrep.new_profile_log", time.Microsecond, false},
	{"xmlrep.marshal.cpu_us", "xmlrep.marshal", time.Microsecond, false},
	{"xmlrep.unmarshal.cpu_us", "xmlrep.unmarshal", time.Microsecond, false},
	{"collect.send.cpu_us", "collect.send", time.Microsecond, false},
	{"collect.ingest_wait.ms", "collect.ingest_wait", time.Millisecond, true},
	{"collect.aggregate.cpu_us", "collect.aggregate", time.Microsecond, false},
	{"collect.registry_fetch.ms", "collect.registry_fetch", time.Millisecond, true},
	{"collect.registry_push.ms", "collect.registry_push", time.Millisecond, true},
}

// traceBlock is the length of one untraced or traced block.
const traceBlock = time.Second

// runTraced is the per-layer run. It measures the workload in
// alternating untraced and traced blocks, so the tracing overhead is a
// number of its own, then runs the layer-probe phase: a fixed set of
// traced operations of every workload on its own seeded inputs plus
// direct calls into each layer, so every layer metric is measured here.
func runTraced(cfg runConfig) (*result, error) {
	b := newBench(cfg.workdir)
	st, err := start(cfg, b)
	if err != nil {
		return nil, err
	}
	defer st.release()
	w := st.w
	probes := make([]workload, 0, len(workloads))
	for _, d := range workloads {
		if d.Name == cfg.def.Name {
			probes = append(probes, w)
			continue
		}
		pw := d.make()
		if err := pw.prepare(cfg.seed, b); err != nil {
			return nil, fmt.Errorf("%s: inputs: %w", d.Name, err)
		}
		rel, err := pw.setup()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", d.Name, err)
		}
		defer rel()
		probes = append(probes, pw)
	}

	// Untraced and traced blocks alternate, so host drift over the run
	// falls on both sides of the overhead comparison alike.
	untraced, traced := newRecorder(), newRecorder()
	tr := newTracer()
	for end := time.Now().Add(cfg.measure); time.Now().Before(end); {
		for _, side := range []struct {
			rec *recorder
			tr  *tracer
		}{{untraced, nil}, {traced, tr}} {
			b.rec, b.tr = side.rec, side.tr
			if err := b.runFor(w, traceBlock); err != nil {
				return nil, err
			}
		}
	}
	b.tr = tr
	b.counters = counters{}
	for _, pw := range probes {
		if err := pw.probe(b); err != nil {
			return nil, err
		}
	}
	if err := b.tr.write(filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.def.Name, cfg.seed))); err != nil {
		return nil, err
	}

	sa, sb := untraced.summarize(), traced.summarize()
	nz := newNormaliser(append(append([]time.Duration(nil), untraced.kernels...), traced.kernels...))
	layers := b.tr.layers()
	m := make(map[string]float64, len(perLayer))
	for _, sm := range spanMetrics {
		l, ok := layers[sm.span]
		if !ok || l.Calls == 0 {
			return nil, fmt.Errorf("layer %s recorded no spans", sm.span)
		}
		per := l.WallPerCall()
		if !sm.wall {
			per = l.PerCall() * nz.scale()
		}
		m[sm.metric] = per / float64(sm.unit)
	}
	c := b.counters
	m["inject.probes"] = float64(c.probes)
	m["gen.denied.count"] = float64(c.denied)
	m["core.soak.injected"] = float64(c.soakInjected)
	m["core.soak.contained"] = float64(c.soakContained)
	m["core.soak.policy_hit_ratio"] = 0
	if c.soakInjected > 0 {
		m["core.soak.policy_hit_ratio"] = float64(c.soakContained) / float64(c.soakInjected)
	}
	m["xmlrep.doc.kb"] = 0
	if c.docs > 0 {
		m["xmlrep.doc.kb"] = float64(c.docBytes) / float64(c.docs) / 1024
	}
	m["collect.registry.hits"] = float64(c.regHits)
	m["collect.registry.misses"] = float64(c.regMisses)
	m["collect.docs_rejected"] = float64(c.docsRejected)
	m["collect.frames_rejected"] = float64(c.framesRejected)
	m["host.ref_kernel_ms"] = ms64(nz.kernel)
	m["host.raw_throughput_per_cpu_s"] = sa.RawThroughputPerCPUs

	// Both halves count towards the run's attempts and failures.
	all := sa
	all.Attempted += sb.Attempted
	all.Failed += sb.Failed
	all.Samples += sb.Samples
	m["fail_ratio"] = all.FailRatio()
	m["trace.overhead_pct"] = 0
	if sb.ThroughputPerCPUs > 0 {
		m["trace.overhead_pct"] = (sa.ThroughputPerCPUs/sb.ThroughputPerCPUs - 1) * 100
	}
	return &result{
		workload: cfg.def.Name, seed: cfg.seed, s: all, metrics: m, traced: true,
		detail: map[string]any{
			"untraced_throughput_per_cpu_s": sa.ThroughputPerCPUs,
			"traced_throughput_per_cpu_s":   sb.ThroughputPerCPUs,
			"untraced_cpu_ms_p50":           ms64(sa.P50),
			"traced_cpu_ms_p50":             ms64(sb.P50),
			"spans":                         len(b.tr.spans),
			"layer_calls":                   layerCalls(layers),
		},
	}, nil
}

// layerCalls is the call count per span name, for the detail line.
func layerCalls(layers map[string]layerStat) map[string]int {
	out := make(map[string]int, len(layers))
	for name, l := range layers {
		out[name] = l.Calls
	}
	return out
}
