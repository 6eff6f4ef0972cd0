package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric of the descriptor. Bound, for end-to-end
// metrics, is the share of the parent's median by which the metric may
// get worse before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics of an untraced run, the same for every
// workload. fail_ratio is zero on every workload of the descriptor, and
// a bounded metric must never be zero, so its complement ok_ratio
// carries the failure accounting here; fail_ratio itself is a per-layer
// metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"throughput_per_cpu_s", "1/s", "higher", bound(0.25)},
	{"cpu_ms_p50", "ms", "lower", bound(0.25)},
	{"cpu_ms_p90", "ms", "lower", bound(0.25)},
	{"alloc_kb_per_op", "KiB", "lower", bound(0.1)},
	{"live_heap_mb", "MiB", "lower", bound(0.1)},
	{"ok_ratio", "ratio", "higher", bound(0.05)},
}

// perLayer are the metrics of a traced run. Times are per call; CPU
// times are normalised like the end-to-end ones, the three .ms times of
// collector exchanges are wall time.
var perLayer = []metricDef{
	{"proc.start.cpu_us", "us", "lower", nil},
	{"dynlink.load.cpu_us", "us", "lower", nil},
	{"cval.new_env.cpu_us", "us", "lower", nil},
	{"ctypes.satisfied_level.cpu_us", "us", "lower", nil},
	{"inject.func_campaign.cpu_ms", "ms", "lower", nil},
	{"inject.probes", "count", "higher", nil},
	{"proc.start_stacked.cpu_us", "us", "lower", nil},
	{"proc.run.cpu_ms", "ms", "lower", nil},
	{"clib.call.ns", "ns", "lower", nil},
	{"gen.wrapped_call.ns", "ns", "lower", nil},
	{"ctypes.cstring_len.ns", "ns", "lower", nil},
	{"cmem.mapped_len.ns", "ns", "lower", nil},
	{"cmem.cstrlen.ns", "ns", "lower", nil},
	{"gen.denied.count", "count", "lower", nil},
	{"core.run_soak.cpu_ms", "ms", "lower", nil},
	{"cmem.journal_rollback.cpu_us", "us", "lower", nil},
	{"wrappers.policy_decide.ns", "ns", "lower", nil},
	{"gen.state_sync.cpu_us", "us", "lower", nil},
	{"core.soak.injected", "count", "higher", nil},
	{"core.soak.contained", "count", "higher", nil},
	{"core.soak.policy_hit_ratio", "ratio", "higher", nil},
	{"xmlrep.new_profile_log.cpu_us", "us", "lower", nil},
	{"xmlrep.marshal.cpu_us", "us", "lower", nil},
	{"xmlrep.unmarshal.cpu_us", "us", "lower", nil},
	{"xmlrep.doc.kb", "KiB", "lower", nil},
	{"collect.send.cpu_us", "us", "lower", nil},
	{"collect.ingest_wait.ms", "ms", "lower", nil},
	{"collect.aggregate.cpu_us", "us", "lower", nil},
	{"collect.registry_fetch.ms", "ms", "lower", nil},
	{"collect.registry_push.ms", "ms", "lower", nil},
	{"collect.registry.hits", "count", "higher", nil},
	{"collect.registry.misses", "count", "lower", nil},
	{"collect.docs_rejected", "count", "lower", nil},
	{"collect.frames_rejected", "count", "lower", nil},
	{"host.ref_kernel_ms", "ms", "lower", nil},
	{"host.raw_throughput_per_cpu_s", "1/s", "higher", nil},
	{"fail_ratio", "ratio", "lower", nil},
	{"trace.overhead_pct", "%", "lower", nil},
}

// runSeconds is how long one run measures.
const runSeconds = 30

// printDescriptor writes BENCHMARK.json's content. Workloads that fail
// on a known defect are left out.
func printDescriptor() error {
	var listed []workloadDef
	for _, d := range workloads {
		if !d.failing {
			listed = append(listed, d)
		}
	}
	d := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  listed,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", out)
	return err
}
