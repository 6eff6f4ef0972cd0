package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"healers/internal/clib"
	"healers/internal/core"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/dynlink"
	"healers/internal/inject"
	"healers/internal/proc"
	"healers/internal/xmlrep"
)

// baselinePath is the committed robust API of the simulated libc, read
// from the root of the checkout the benchmark runs in.
const baselinePath = "testdata/robust_api_baseline.xml"

// baseline is the robust-API baseline document and its failure total.
type baseline struct {
	raw      []byte
	doc      *xmlrep.RobustAPIDoc
	failures int
}

func loadBaseline() (*baseline, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	doc, err := xmlrep.Unmarshal[xmlrep.RobustAPIDoc](raw)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	b := &baseline{raw: raw, doc: doc}
	for _, f := range doc.Funcs {
		b.failures += f.Failures
	}
	return b, nil
}

// libcSweep repeats cold, sequential fault-injection sweeps over the
// simulated libc. One operation is one probe; a function's probes are
// timed together between progress callbacks and recorded as one
// sample of per-probe CPU.
type libcSweep struct {
	base *baseline
	tk   *core.Toolkit
	c    *inject.Campaign
	// onProgress is the callback of the sweep in flight.
	onProgress func(inject.Progress)
}

// probeFuncs are the functions whose prototypes the layer-probe phase
// checks arguments against.
var probeFuncs = []string{"strlen", "strcpy", "atoi"}

func (w *libcSweep) prepare(seed int64, b *bench) error {
	// The sweep has no seeded input: the seed is only recorded.
	base, err := loadBaseline()
	w.base = base
	return err
}

func (w *libcSweep) setup() (func(), error) {
	tk, err := core.NewToolkit()
	if err != nil {
		return nil, err
	}
	c, err := inject.New(tk.System(), clib.LibcSoname, inject.WithProgress(func(p inject.Progress) {
		if w.onProgress != nil {
			w.onProgress(p)
		}
	}))
	if err != nil {
		return nil, err
	}
	w.tk, w.c = tk, c
	return func() { w.tk, w.c = nil, nil }, nil
}

// step runs one sweep. A sweep that fails its output check fails all
// of its probes.
func (w *libcSweep) step(b *bench) error {
	type fn struct {
		rec  opRecord
		span span
	}
	funcs := make([]fn, 0, 128)
	counted := 0
	m := b.start()
	wall := time.Now()
	w.onProgress = func(p inject.Progress) {
		rec := b.stop(m, p.FuncProbes, p.FuncProbes)
		funcs = append(funcs, fn{rec: rec, span: span{
			Name: "inject.func_campaign", Op: int64(len(b.rec.ops) + len(funcs)),
			CPUStart: int64(m.cpu), CPUEnd: int64(m.cpu + rec.raw), N: 1,
			Start: wall.UnixNano(), End: time.Now().UnixNano(),
		}})
		counted += p.FuncProbes
		b.maybeKernel()
		m = b.start()
		wall = time.Now()
	}
	lr, err := w.c.RunLibrary()
	w.onProgress = nil
	if err != nil {
		return fmt.Errorf("libc-sweep: %w", err)
	}
	ok := w.check(lr, counted) == nil
	for _, f := range funcs {
		b.rec.add(f.rec, ok)
		b.tr.addSpan(f.span)
	}
	b.counters.probes += lr.TotalProbes
	return nil
}

// check verifies a sweep: the derived robust API equals the baseline
// with no regression and no improvement, the probe total equals the
// probes the progress callbacks counted, and the failure total equals
// the baseline's.
func (w *libcSweep) check(lr *inject.LibReport, counted int) error {
	regs, imps, err := core.CompareToBaseline(lr, w.base.doc)
	switch {
	case err != nil:
		return err
	case len(regs)+len(imps) > 0:
		return fmt.Errorf("%d regressions, %d improvements against the baseline", len(regs), len(imps))
	case lr.TotalProbes != counted:
		return fmt.Errorf("%d probes reported, %d counted", lr.TotalProbes, counted)
	case lr.TotalFailures != w.base.failures:
		return fmt.Errorf("%d failures, baseline has %d", lr.TotalFailures, w.base.failures)
	}
	return nil
}

// probe runs one sweep, then times the fresh-process set-up a probe
// pays (process start, link map, memory image) and the robust-type
// check a probe's classification makes.
func (w *libcSweep) probe(b *bench) error {
	rec := b.rec
	b.rec = newRecorder()
	defer func() { b.rec = rec }()
	if err := w.step(b); err != nil {
		return err
	}

	sys := w.tk.System()
	host := ""
	for _, exe := range sys.Executables() {
		if strings.HasPrefix(exe, "healers-probe-host") {
			host = exe
		}
	}
	if host == "" {
		return fmt.Errorf("libc-sweep probe: the campaign installed no probe host")
	}
	const reps = 32
	for i := 0; i < reps; i++ {
		sp := b.tr.begin("proc.start")
		_, err := proc.Start(sys, host)
		b.tr.end(sp, 1)
		if err != nil {
			return fmt.Errorf("libc-sweep probe: %w", err)
		}
		sp = b.tr.begin("dynlink.load")
		_, err = dynlink.Load(sys, host, nil)
		b.tr.end(sp, 1)
		if err != nil {
			return fmt.Errorf("libc-sweep probe: %w", err)
		}
		sp = b.tr.begin("cval.new_env")
		cval.NewEnv()
		b.tr.end(sp, 1)
	}

	libc, _ := sys.Library(clib.LibcSoname)
	env := cval.NewEnv()
	const checks = 256
	for _, name := range probeFuncs {
		proto := libc.Proto(name)
		args := make([]cval.Value, len(proto.Params))
		for i := range args {
			a, f := env.Img.StaticString(name)
			if f != nil {
				return fmt.Errorf("libc-sweep probe: %v", f)
			}
			args[i] = cval.Ptr(a)
		}
		sp := b.tr.begin("ctypes.satisfied_level")
		for i := 0; i < checks; i++ {
			p := i % len(args)
			ctypes.SatisfiedLevel(env, proto, p, args, ctypes.ChainFor(proto.Params[p]))
		}
		b.tr.end(sp, checks)
	}
	return nil
}
