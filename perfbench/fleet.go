package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"healers/internal/clib"
	"healers/internal/collect"
	"healers/internal/core"
	"healers/internal/gen"
	"healers/internal/inject"
	"healers/internal/victim"
	"healers/internal/wrappers"
	"healers/internal/xmlrep"
)

// Fleet shape: profile documents generated per run and sent per round,
// the collector's retention budget, the registry's entry bound (below
// the entry pool, so pushes keep storing and evicting), and the keys of
// each kind one fetch asks for.
const (
	fleetDocs         = 96
	fleetDocsPerRound = 4
	fleetServerDocs   = 64
	fleetRegistryDocs = 32
	fleetFetchKeys    = 4
	fleetIngestWait   = 10 * time.Second
)

// profileDoc is one seeded profile document and its call total.
type profileDoc struct {
	log   *xmlrep.ProfileLog
	calls uint64
}

// fleetIngest sends profile documents to an in-process collector over
// one client connection, reads the fleet aggregate, and exchanges
// campaign-cache entries with the collector's registry. One operation
// is one round.
type fleetIngest struct {
	rng       *rand.Rand
	docs      []profileDoc
	profState *gen.State
	pool      []xmlrep.CacheFuncXML
	hierarchy string

	reg    *collect.Registry
	srv    *collect.Server
	client *collect.Client

	nextDoc, nextPush int
	last              []byte // the last document sent
	sent              uint64
	sentCalls         uint64
	// window models the registry: the keys of the last pushes it still
	// holds, oldest first.
	window []string
}

func (w *fleetIngest) prepare(seed int64, b *bench) error {
	w.rng = rand.New(rand.NewSource(seed))
	tk, err := core.NewToolkit()
	if err != nil {
		return err
	}
	if err := tk.InstallSampleApps(); err != nil {
		return err
	}
	var words []string
	for i := 0; i < fleetDocs; i++ {
		var rr *core.RunResult
		switch i % 3 {
		case 0:
			rr, err = tk.RunProfiled(victim.StressName, "", strconv.Itoa(20+w.rng.Intn(400)))
		case 1:
			rr, err = tk.RunProfiled(victim.TextutilName, seededText(w.rng, &words))
		default:
			var sb strings.Builder
			for n := 1 + w.rng.Intn(40); n > 0; n-- {
				fmt.Fprintf(&sb, "%d.%d\n", w.rng.Intn(1000), w.rng.Intn(100))
			}
			rr, err = tk.RunProfiled(victim.CalcName, sb.String())
		}
		if err != nil {
			return fmt.Errorf("fleet-ingest: profiled run: %w", err)
		}
		w.docs = append(w.docs, profileDoc{log: rr.Profile, calls: rr.Profile.TotalCalls()})
	}
	w.profState, _ = tk.WrapperState(wrappers.ProfilingSoname)
	return w.preparePool(tk, b.workdir)
}

// preparePool derives real campaign-cache entries with one cached sweep
// of libc, read back from the saved cache file in seeded order.
func (w *fleetIngest) preparePool(tk *core.Toolkit, dir string) error {
	cache, _ := inject.OpenCache("")
	c, err := inject.New(tk.System(), clib.LibcSoname, inject.WithCache(cache))
	if err != nil {
		return err
	}
	if _, err := c.RunLibrary(); err != nil {
		return fmt.Errorf("fleet-ingest: pool sweep: %w", err)
	}
	path := filepath.Join(dir, "fleet-pool.xml")
	if err := cache.SaveAs(path); err != nil {
		return err
	}
	defer os.Remove(path)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := xmlrep.Unmarshal[xmlrep.CampaignCacheDoc](data)
	if err != nil {
		return err
	}
	if len(doc.Funcs) <= fleetRegistryDocs {
		return fmt.Errorf("fleet-ingest: pool of %d entries does not exceed the registry bound %d", len(doc.Funcs), fleetRegistryDocs)
	}
	w.hierarchy = doc.Hierarchy
	w.pool = doc.Funcs
	w.rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
	return nil
}

func (w *fleetIngest) setup() (func(), error) {
	reg, err := collect.NewRegistry("", collect.WithRegistryMaxDocs(fleetRegistryDocs))
	if err != nil {
		return nil, err
	}
	srv, err := collect.Serve("127.0.0.1:0", collect.WithHandler(reg.Handler()), collect.WithMaxDocs(fleetServerDocs))
	if err != nil {
		return nil, err
	}
	client, err := collect.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	w.reg, w.srv, w.client = reg, srv, client
	w.sent, w.sentCalls, w.window = 0, 0, nil
	return func() {
		client.Close()
		srv.Close()
	}, nil
}

func (w *fleetIngest) step(b *bench) error {
	// Keys are chosen before the operation starts: up to fleetFetchKeys
	// the registry holds and as many it never saw.
	keys := make([]string, 0, 2*fleetFetchKeys)
	known := make(map[string]bool, fleetFetchKeys)
	for i := 0; i < fleetFetchKeys && len(w.window) > 0; i++ {
		k := w.window[w.rng.Intn(len(w.window))]
		if !known[k] {
			known[k] = true
			keys = append(keys, k)
		}
	}
	for i := 0; i < fleetFetchKeys; i++ {
		var raw [32]byte
		w.rng.Read(raw[:])
		keys = append(keys, hex.EncodeToString(raw[:]))
	}
	entry := w.pool[w.nextPush%len(w.pool)]
	w.nextPush++

	b.tr.setOp(int64(len(b.rec.ops)))
	m := b.start()
	var errs []error
	for k := 0; k < fleetDocsPerRound; k++ {
		d := w.docs[w.nextDoc%len(w.docs)]
		w.nextDoc++
		sp := b.tr.begin("xmlrep.marshal")
		data, err := xmlrep.Marshal(d.log)
		b.tr.end(sp, 1)
		if err != nil {
			return fmt.Errorf("fleet-ingest: %w", err)
		}
		sp = b.tr.begin("collect.send")
		err = w.client.SendRaw(data)
		b.tr.end(sp, 1)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		w.sent++
		w.sentCalls += d.calls
		w.last = data
		b.counters.docBytes += len(data)
		b.counters.docs++
	}
	sp := b.tr.begin("collect.ingest_wait")
	ingested := w.waitIngest()
	b.tr.end(sp, 1)
	sp = b.tr.begin("collect.aggregate")
	agg := w.srv.Aggregate()
	b.tr.end(sp, 1)
	sp = b.tr.begin("collect.registry_fetch")
	ans, fetchErr := collect.RegistryFetch(w.client, "perfbench", keys)
	b.tr.end(sp, 1)
	sp = b.tr.begin("collect.registry_push")
	ack, pushErr := collect.RegistryPush(w.client, "perfbench", w.hierarchy, []xmlrep.CacheFuncXML{entry})
	b.tr.end(sp, 1)
	rec := b.stop(m, 1, fleetDocsPerRound)

	w.window = append(w.window, entry.Key)
	if len(w.window) > fleetRegistryDocs {
		w.window = w.window[1:]
	}
	errs = append(errs, fetchErr, pushErr)
	if !ingested {
		errs = append(errs, fmt.Errorf("server counted %d of %d documents", w.srv.Stats().DocsReceived, w.sent))
	}
	errs = append(errs, w.check(agg, ans, known, len(keys)-len(known), ack))
	ok := true
	for _, err := range errs {
		if err != nil {
			ok = false
			fmt.Fprintf(os.Stderr, "fleet-ingest: round %d: %v\n", len(b.rec.ops), err)
		}
	}
	b.rec.add(rec, ok)
	return nil
}

// waitIngest waits until the server has stored every sent document.
func (w *fleetIngest) waitIngest() bool {
	deadline := time.Now().Add(fleetIngestWait)
	for w.srv.Stats().DocsReceived < w.sent {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(250 * time.Microsecond)
	}
	return true
}

// check verifies a round: nothing rejected, the aggregate's call total
// equal to the sent documents' total, every fetched entry one of the
// known keys with a valid per-entry sum, every unknown key missing, and
// the pushed entry stored.
func (w *fleetIngest) check(agg *collect.FleetAggregate, ans *xmlrep.RegistryAnswer, known map[string]bool, unknown int, ack *xmlrep.RegistryAck) error {
	st := w.srv.Stats()
	if st.DocsRejected+st.FramesRejected > 0 {
		return fmt.Errorf("server rejected %d documents and %d frames", st.DocsRejected, st.FramesRejected)
	}
	var calls uint64
	for _, f := range agg.Funcs {
		calls += f.Calls
	}
	if calls != w.sentCalls {
		return fmt.Errorf("aggregate holds %d calls, sent profiles hold %d", calls, w.sentCalls)
	}
	if ans != nil {
		for i := range ans.Funcs {
			e := &ans.Funcs[i]
			if !known[e.Key] || e.Sum != xmlrep.EntrySum(&e.CacheFuncXML) {
				return fmt.Errorf("fetched entry %s does not verify", e.Name)
			}
		}
		if len(ans.Funcs) != len(known) || len(ans.Missing) != unknown {
			return fmt.Errorf("fetch found %d of %d known keys and missed %d of %d unknown ones",
				len(ans.Funcs), len(known), len(ans.Missing), unknown)
		}
	}
	if ack != nil && (!ack.OK || ack.Stored != 1) {
		return fmt.Errorf("push not stored: ok=%v stored=%d known=%d %s", ack.OK, ack.Stored, ack.Known, ack.Reason)
	}
	return nil
}

// probe runs two rounds from the first seeded documents, counting the registry's hits and misses and
// the collector's rejections, then decodes the last document sent and
// builds profile documents from the profiling wrapper's state.
func (w *fleetIngest) probe(b *bench) error {
	rec := b.rec
	b.rec = newRecorder()
	defer func() { b.rec = rec }()
	before := w.reg.Stats()
	w.nextDoc = 0
	for i := 0; i < 2; i++ {
		if err := w.step(b); err != nil {
			return err
		}
	}
	st, rs := w.srv.Stats(), w.reg.Stats()
	b.counters.regHits += rs.Hits - before.Hits
	b.counters.regMisses += rs.Misses - before.Misses
	b.counters.docsRejected = st.DocsRejected
	b.counters.framesRejected = st.FramesRejected

	const reps = 4
	for i := 0; i < reps; i++ {
		sp := b.tr.begin("xmlrep.unmarshal")
		_, err := xmlrep.Unmarshal[xmlrep.ProfileLog](w.last)
		b.tr.end(sp, 1)
		if err != nil {
			return fmt.Errorf("fleet-ingest probe: %w", err)
		}
		sp = b.tr.begin("xmlrep.new_profile_log")
		xmlrep.NewProfileLog("sim-host", "perfbench", w.profState)
		b.tr.end(sp, 1)
	}
	return nil
}
