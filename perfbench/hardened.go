package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/core"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/dynlink"
	"healers/internal/proc"
	"healers/internal/victim"
	"healers/internal/wrappers"
)

// hardenedInputs is the number of seeded inputs, alternating stress and
// textutil; operations cycle through them.
const hardenedInputs = 512

// stackedPreloads is the wrapper stack every hardened-app process runs
// under, outermost first.
var stackedPreloads = []string{wrappers.SecuritySoname, wrappers.RobustnessSoname, wrappers.ProfilingSoname}

// appInput is one process run and the outcome an unwrapped, libc-only
// run of the same app and input produced.
type appInput struct {
	app   string
	argv  []string
	stdin string
	// Expected outcome.
	stdout string
	calls  uint64
}

// hardenedApp runs the sample apps under stacked security, robustness
// and profiling wrappers, the robustness wrapper built from the
// committed baseline. One operation is one process start plus run.
type hardenedApp struct {
	base   *baseline
	inputs []appInput
	words  []string
	next   int
	tk     *core.Toolkit
}

func (w *hardenedApp) prepare(seed int64, b *bench) error {
	base, err := loadBaseline()
	if err != nil {
		return err
	}
	w.base = base
	rng := rand.New(rand.NewSource(seed))
	plain, err := core.NewToolkit()
	if err != nil {
		return err
	}
	if err := plain.InstallSampleApps(); err != nil {
		return err
	}
	w.inputs = make([]appInput, hardenedInputs)
	for i := range w.inputs {
		in := &w.inputs[i]
		if i%2 == 0 {
			in.app = victim.StressName
			in.argv = []string{strconv.Itoa(80 + rng.Intn(41))}
		} else {
			in.app = victim.TextutilName
			in.stdin = seededText(rng, &w.words)
		}
		// The expected outcome comes from the same app and input run
		// with libc alone.
		p, err := proc.Start(plain.System(), in.app, proc.WithStdin(in.stdin))
		if err != nil {
			return fmt.Errorf("hardened-app: reference run: %w", err)
		}
		res := p.Run(in.argv...)
		if res.Crashed() || res.Status != 0 {
			return fmt.Errorf("hardened-app: reference run of %s ended %s", in.app, res)
		}
		in.stdout, in.calls = res.Stdout, p.Calls
	}
	return nil
}

// seededText returns 3 to 8 lines of 1 to 10 lowercase words each, with
// at least two words on the first line, and appends the words to dict.
func seededText(rng *rand.Rand, dict *[]string) string {
	var sb strings.Builder
	lines := 3 + rng.Intn(6)
	for l := 0; l < lines; l++ {
		words := 1 + rng.Intn(10)
		if l == 0 && words < 2 {
			words = 2
		}
		for k := 0; k < words; k++ {
			if k > 0 {
				sb.WriteByte(' ')
			}
			n := 2 + rng.Intn(8)
			word := make([]byte, n)
			for j := range word {
				word[j] = byte('a' + rng.Intn(26))
			}
			sb.Write(word)
			*dict = append(*dict, string(word))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (w *hardenedApp) setup() (func(), error) {
	tk, err := core.NewToolkit()
	if err != nil {
		return nil, err
	}
	if err := tk.InstallSampleApps(); err != nil {
		return nil, err
	}
	api, err := tk.LoadRobustAPIXML(w.base.raw)
	if err != nil {
		return nil, err
	}
	if _, err := tk.GenerateSecurityWrapper(clib.LibcSoname, nil); err != nil {
		return nil, err
	}
	if _, err := tk.GenerateRobustnessWrapper(clib.LibcSoname, api, nil); err != nil {
		return nil, err
	}
	if _, err := tk.GenerateProfilingWrapper(clib.LibcSoname, nil); err != nil {
		return nil, err
	}
	w.tk = tk
	return func() { w.tk = nil }, nil
}

func (w *hardenedApp) step(b *bench) error {
	in := &w.inputs[w.next%len(w.inputs)]
	w.next++
	b.tr.setOp(int64(len(b.rec.ops)))
	m := b.start()
	sp := b.tr.begin("proc.start_stacked")
	p, err := proc.Start(w.tk.System(), in.app, proc.WithPreloads(stackedPreloads...), proc.WithStdin(in.stdin))
	b.tr.end(sp, 1)
	if err != nil {
		return fmt.Errorf("hardened-app: %w", err)
	}
	sp = b.tr.begin("proc.run")
	res := p.Run(in.argv...)
	b.tr.end(sp, 1)
	rec := b.stop(m, 1, int(p.Calls))
	// The check: a clean exit with the unwrapped run's stdout and call
	// count. The robustness wrapper's denial of strtok(NULL, delim)
	// truncates textutil's word count, so those runs fail here.
	ok := !res.Crashed() && res.Status == 0 && res.Stdout == in.stdout && p.Calls == in.calls
	b.rec.add(rec, ok)
	return nil
}

// deniedTotal is the robustness wrapper's vetoed-call total.
func (w *hardenedApp) deniedTotal() uint64 {
	st, _ := w.tk.WrapperState(wrappers.RobustnessSoname)
	st.Sync()
	var n uint64
	for _, d := range st.DeniedCount {
		n += d
	}
	return n
}

// probe runs the first stress and textutil inputs, counting the calls
// the robustness wrapper denies, then times single libc calls on the
// seeded words, raw and through the wrapper stack, and the substrate
// queries the robustness checks are made of.
func (w *hardenedApp) probe(b *bench) error {
	rec := b.rec
	b.rec = newRecorder()
	defer func() { b.rec = rec }()
	denied := w.deniedTotal()
	w.next = 0
	for i := 0; i < 2; i++ {
		if err := w.step(b); err != nil {
			return err
		}
	}
	b.counters.denied += w.deniedTotal() - denied

	sys := w.tk.System()
	raw, err := dynlink.Load(sys, victim.StressName, nil)
	if err != nil {
		return err
	}
	wrapped, err := dynlink.Load(sys, victim.StressName, stackedPreloads)
	if err != nil {
		return err
	}
	env := cval.NewEnv()
	addrs := make([]cmem.Addr, 0, 256)
	for i := 0; i < 256 && i < len(w.words); i++ {
		a, f := env.Img.StaticString(w.words[(i*7)%len(w.words)])
		if f != nil {
			return fmt.Errorf("hardened-app probe: %v", f)
		}
		addrs = append(addrs, a)
	}
	num, f := env.Img.StaticString("123456")
	if f != nil {
		return fmt.Errorf("hardened-app probe: %v", f)
	}
	for _, lm := range []struct {
		name string
		lm   *dynlink.Linkmap
	}{{"clib.call", raw}, {"gen.wrapped_call", wrapped}} {
		strlen, _ := lm.lm.Resolve("strlen")
		atoi, _ := lm.lm.Resolve("atoi")
		toupper, _ := lm.lm.Resolve("toupper")
		isalpha, _ := lm.lm.Resolve("isalpha")
		sp := b.tr.begin(lm.name)
		for _, a := range addrs {
			strlen(env, []cval.Value{cval.Ptr(a)})
			atoi(env, []cval.Value{cval.Ptr(num)})
			up, _ := toupper(env, []cval.Value{cval.Int(int64('a' + a%26))})
			isalpha(env, []cval.Value{up})
		}
		b.tr.end(sp, 4*len(addrs))
	}

	const reps = 16
	sp := b.tr.begin("ctypes.cstring_len")
	for r := 0; r < reps; r++ {
		for _, a := range addrs {
			ctypes.CStringLen(env, a)
		}
	}
	b.tr.end(sp, reps*len(addrs))
	space := env.Img.Space
	sp = b.tr.begin("cmem.mapped_len")
	for r := 0; r < reps; r++ {
		for _, a := range addrs {
			space.MappedLen(a, cmem.ProtRead, 1<<20)
		}
	}
	b.tr.end(sp, reps*len(addrs))
	sp = b.tr.begin("cmem.cstrlen")
	for r := 0; r < reps; r++ {
		for _, a := range addrs {
			space.CStrLen(a)
		}
	}
	b.tr.end(sp, reps*len(addrs))
	return nil
}
