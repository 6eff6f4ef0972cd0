package main

import (
	"fmt"
	"math/rand"

	"healers/internal/clib"
	"healers/internal/core"
	"healers/internal/cval"
	"healers/internal/gen"
	"healers/internal/victim"
	"healers/internal/wrappers"
)

// Soak window shape: requests per window and the chaos injection rate.
const (
	soakRequests = 50
	soakRate     = 0.05
)

// chaosSoak drives the rootd daemon through chaos windows under the
// containment wrapper with the soak recovery policy. One operation is
// one window of soakRequests requests with its own seeded chaos stream.
type chaosSoak struct {
	rng *rand.Rand
	tk  *core.Toolkit
}

func (w *chaosSoak) prepare(seed int64, b *bench) error {
	w.rng = rand.New(rand.NewSource(seed))
	return nil
}

func (w *chaosSoak) setup() (func(), error) {
	tk, err := core.NewToolkit()
	if err != nil {
		return nil, err
	}
	if err := tk.InstallSampleApps(); err != nil {
		return nil, err
	}
	if _, err := tk.GenerateContainmentWrapper(clib.LibcSoname, nil, wrappers.SoakPolicy(), nil); err != nil {
		return nil, err
	}
	w.tk = tk
	return func() { w.tk = nil }, nil
}

func (w *chaosSoak) step(b *bench) error {
	seed := w.rng.Uint64()
	b.tr.setOp(int64(len(b.rec.ops)))
	m := b.start()
	sp := b.tr.begin("core.run_soak")
	res, err := w.tk.RunSoak(victim.RootdName, soakRequests, soakRate, seed, true)
	b.tr.end(sp, 1)
	if err != nil {
		return fmt.Errorf("chaos-soak: %w", err)
	}
	rec := b.stop(m, 1, res.Served)
	// The check: the daemon survives the window, serves every request,
	// and every injected fault was contained.
	ok := res.Survived && res.Served == res.Requests && res.ContainedFaults == res.Injected
	b.rec.add(rec, ok)
	b.counters.soakInjected += res.Injected
	b.counters.soakContained += res.ContainedFaults
	return nil
}

// soakProbeWindows is how many windows the layer-probe phase runs, so
// its injected-fault count is not left to a handful of draws.
const soakProbeWindows = 16

// probe runs soakProbeWindows windows, then times the layers a window
// exercises, called directly: the containment state's fold of one
// window's unsynced shards, a journalled write rolled back, and
// recovery-policy decisions.
func (w *chaosSoak) probe(b *bench) error {
	rec := b.rec
	b.rec = newRecorder()
	defer func() { b.rec = rec }()
	for i := 0; i < soakProbeWindows; i++ {
		if err := w.step(b); err != nil {
			return err
		}
	}

	// RunSoak folds the shards before it returns; RunChaos runs the
	// same window and leaves the wrapped calls' counts in the shards.
	seed := w.rng.Uint64()
	traffic := victim.StreamTraffic(soakRequests)
	if _, err := w.tk.RunChaos(victim.RootdName, soakRate, seed, []string{wrappers.ContainmentSoname},
		string(traffic), victim.RootdStreamFlag); err != nil {
		return fmt.Errorf("chaos-soak probe: %w", err)
	}
	st, _ := w.tk.WrapperState(wrappers.ContainmentSoname)
	sp := b.tr.begin("gen.state_sync")
	st.Sync()
	b.tr.end(sp, 1)

	env := cval.NewEnv()
	buf, f := env.Img.StaticAlloc(uint32(len(traffic)))
	if f != nil {
		return fmt.Errorf("chaos-soak probe: %v", f)
	}
	space := env.Img.Space
	sp = b.tr.begin("cmem.journal_rollback")
	space.BeginJournal()
	if f := space.Write(buf, traffic); f != nil {
		return fmt.Errorf("chaos-soak probe: %v", f)
	}
	space.RollbackJournal()
	b.tr.end(sp, 1)

	policy := wrappers.SoakPolicy()
	names := st.FuncNames()
	const decisions = 1024
	sp = b.tr.begin("wrappers.policy_decide")
	for i := 0; i < decisions; i++ {
		policy.Decide(names[(uint64(i)+seed)%uint64(len(names))], gen.FailureClass(i%4))
	}
	b.tr.end(sp, decisions)
	return nil
}
