package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/dist"
	"sdcgmres/internal/store"
	"sdcgmres/internal/trace"
)

// Reference rates of two workers on a 2-vCPU host. They size a run's fixed
// amount of work so that it takes about --seconds there; the work itself
// depends only on the seed and --seconds, never on the machine.
const (
	poissonUnitRate = 40.0
	circuitUnitRate = 5.0
)

// sweepWorkers is the campaign concurrency of both sweeps: two solver
// goroutines on two CPUs, kernels sequential.
const sweepWorkers = 2

// sweepPlan describes one sweep workload.
type sweepPlan struct {
	name string
	spec campaign.ProblemSpec
	// label is the problem column of the reference rows.
	label  string
	stride int
	// perSeries samples that many sites of each series (0 = every site).
	perSeries int
	// rounds runs the unit set that many times, each into a fresh journal.
	rounds int
	fleet  bool
	// rebuild is how many sampled units of each series the traced run
	// solves again with the core recorder on.
	rebuild int
}

// manifest covers the committed fast-profile series: large/slight/tiny ×
// first/last MGS with the detector off, plus large × first/last with the
// Frobenius-bound detector and restart response. Compile takes the full
// cross product; selectUnits drops the four detector-on series that have
// no committed CSV.
func (p sweepPlan) manifest() campaign.Manifest {
	return campaign.Manifest{
		Name:      "perfbench-" + p.name,
		Problems:  []campaign.ProblemSpec{p.spec},
		Models:    []string{"large", "slight", "tiny"},
		Steps:     []string{"first", "last"},
		Detectors: []campaign.DetectorSpec{{}, {Enabled: true, Bound: "frobenius", Response: "restart"}},
		Stride:    p.stride,
	}
}

// sweepSeries is how many series the plan's units cover.
const sweepSeries = 8

func poissonPlan(b *bench) sweepPlan {
	p := sweepPlan{name: "sweep-poisson", label: "Poisson", rebuild: 2,
		spec: campaign.ProblemSpec{Kind: "poisson", N: 64, InnerIters: 25, TargetOuter: 9}, stride: 4}
	if b.smoke {
		p.spec = campaign.ProblemSpec{Kind: "poisson", N: 32, InnerIters: 10, TargetOuter: 8}
		p.stride, p.rebuild = 5, 1
	}
	units := sweepSeries * ((p.spec.TargetOuter*p.spec.InnerIters-1)/p.stride + 1)
	p.rounds = max(1, int(math.Round(b.seconds*poissonUnitRate/float64(units))))
	return p
}

func circuitPlan(b *bench) sweepPlan {
	p := sweepPlan{name: "sweep-circuit-fleet", label: "circuit", rounds: 1, fleet: true, rebuild: 1,
		spec: campaign.ProblemSpec{Kind: "circuit", N: 8000, InnerIters: 25, TargetOuter: 28}, stride: 4}
	total := max(minUnits, int(math.Round(b.seconds*circuitUnitRate)))
	if b.smoke {
		p.spec = campaign.ProblemSpec{Kind: "circuit", N: 2000, InnerIters: 10, TargetOuter: 20}
		p.stride, total = 5, 16
	}
	p.perSeries = (total + sweepSeries - 1) / sweepSeries
	return p
}

func setupPoissonSweep(ctx context.Context, b *bench, traced bool) (instance, error) {
	return setupSweep(ctx, b, traced, poissonPlan(b))
}

func setupCircuitFleet(ctx context.Context, b *bench, traced bool) (instance, error) {
	return setupSweep(ctx, b, traced, circuitPlan(b))
}

// sweepInstance is a compiled sweep with its store and, for the fleet
// workload, a running coordinator and two workers.
type sweepInstance struct {
	plan     sweepPlan
	c        *campaign.Compiled
	compileS float64
	dir      string
	st       *store.Store
	fleet    *fleet
	traced   bool

	// Accumulated over the timed phase.
	mu           sync.Mutex
	ingestUS     []float64
	journalBytes int64
	execMS       float64
	last         map[string]campaign.Record
}

func setupSweep(ctx context.Context, b *bench, traced bool, plan sweepPlan) (*sweepInstance, error) {
	dir, err := os.MkdirTemp(b.scratch, "sweep-")
	if err != nil {
		return nil, err
	}
	s := &sweepInstance{plan: plan, dir: dir, traced: traced}
	start := time.Now()
	c, err := campaign.Compile(plan.manifest())
	if err != nil {
		return nil, err
	}
	s.compileS = time.Since(start).Seconds()
	c.Units = selectUnits(c.Units, plan.perSeries, rand.New(rand.NewSource(b.seed)))
	s.c = c
	if b.smoke {
		if err := referenceRows(ctx, b, c, plan.label); err != nil {
			return nil, err
		}
	}
	if s.st, err = store.Open(filepath.Join(dir, "store"), store.Options{}); err != nil {
		return nil, err
	}
	if plan.fleet {
		if s.fleet, err = startFleet(b, c, traced); err != nil {
			s.st.Close()
			return nil, err
		}
	}
	return s, nil
}

// selectUnits keeps the series with committed references, samples
// perSeries sites of each (0 keeps every site) and shuffles the result, so
// the seed fixes both which units run and in which order.
func selectUnits(all []campaign.Unit, perSeries int, rng *rand.Rand) []campaign.Unit {
	series := map[campaign.SeriesKey][]campaign.Unit{}
	var order []campaign.SeriesKey
	for _, u := range all {
		if u.Detector != "off" && u.Model != "large" {
			continue
		}
		k := u.SeriesKey()
		if _, ok := series[k]; !ok {
			order = append(order, k)
		}
		series[k] = append(series[k], u)
	}
	var units []campaign.Unit
	for _, k := range order {
		us := series[k]
		if perSeries > 0 && perSeries < len(us) {
			picked := make([]campaign.Unit, perSeries)
			for i, j := range rng.Perm(len(us))[:perSeries] {
				picked[i] = us[j]
			}
			us = picked
		}
		units = append(units, us...)
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	return units
}

func (s *sweepInstance) run(ctx context.Context, b *bench) (*phase, error) {
	ph := &phase{}
	for r := 0; r < s.plan.rounds; r++ {
		if err := s.round(ctx, b, r, ph); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// round runs the unit set once into a fresh journal, with every record
// ingested into the store as it is journaled, and checks each record
// against its reference row.
func (s *sweepInstance) round(ctx context.Context, b *bench, r int, ph *phase) error {
	name := fmt.Sprintf("%s-r%d", s.plan.name, r)
	path := filepath.Join(s.dir, name+".jsonl")
	j, _, err := campaign.OpenJournal(path)
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if s.traced {
		rec = trace.NewRecorder(4*len(s.c.Units) + 64)
	}
	roundID := b.spans.id()
	var ingestErrs []string
	onRecord := func(r campaign.Record) {
		t0 := time.Now()
		_, err := s.st.Ingest(name, r)
		t1 := time.Now()
		b.spans.add(0, roundID, "store.ingest", r.ID, t0, t1)
		s.mu.Lock()
		s.ingestUS = append(s.ingestUS, float64(t1.Sub(t0))/float64(time.Microsecond))
		if err != nil {
			ingestErrs = append(ingestErrs, fmt.Sprintf("ingest %s: %v", r.ID, err))
		}
		s.mu.Unlock()
	}

	start := time.Now()
	var recs map[string]campaign.Record
	spanName := "campaign.run"
	if s.fleet == nil {
		runner := campaign.NewRunner(s.c, j, nil, campaign.Options{Workers: sweepWorkers, OnRecord: onRecord, Recorder: rec})
		err = runner.Run(ctx)
		recs = runner.Records()
	} else {
		spanName = "dist.run_campaign"
		recs, err = s.fleet.runCampaign(ctx, s.c, j, roundID, dist.CoordinatorConfig{
			LeaseTTL: 15 * time.Second, BatchSize: 4, OnRecord: onRecord, Recorder: rec})
	}
	end := time.Now()
	ph.wall += end.Sub(start)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	b.spans.add(roundID, 0, spanName, name, start, end)
	b.spans.addEvents(rec.Events(), roundID, "")
	if s.fleet != nil {
		s.fleet.harvest(b.spans, roundID)
	}
	if fi, err := os.Stat(path); err == nil {
		s.journalBytes += fi.Size()
	}

	for _, u := range s.c.Units {
		ph.attempted++
		r, ok := recs[u.ID]
		if !ok {
			ph.fail("unit %s: no record", u.ID)
			continue
		}
		if r.Outcome != campaign.OutcomeOK {
			ph.fail("unit %s: outcome %s: %s", u.ID, r.Outcome, r.Err)
			continue
		}
		cfg, err := s.c.SweepConfig(u)
		if err == nil {
			err = b.gold.check(s.plan.label, cfg, r.Point)
		}
		if err != nil {
			ph.fail("unit %s: %v", u.ID, err)
			continue
		}
		ph.units++
		ph.lat = append(ph.lat, r.ElapsedMS)
		s.execMS += r.ElapsedMS
	}
	for _, e := range ingestErrs {
		ph.fail("%s", e)
	}
	s.last = recs
	return nil
}

func (s *sweepInstance) close() {
	if s.fleet != nil {
		s.fleet.stop()
	}
	s.st.Close()
	os.RemoveAll(s.dir)
}

// layers reports the sweep's per-layer metrics after a traced phase.
func (s *sweepInstance) layers(ctx context.Context, b *bench, ph *phase, ms metricSet) error {
	n := ph.units
	units := float64(n)
	ms.set("campaign.compile_s", s.compileS, 1)
	ms.set("campaign.journal_bytes_per_unit", ratio(float64(s.journalBytes), units), n)
	idle := 1 - ratio(s.execMS, float64(ph.wall.Milliseconds())*sweepWorkers)
	if s.fleet == nil {
		ms.set("campaign.worker_idle_frac", idle, n)
	} else {
		ms.set("dist.worker_idle_frac", idle, n)
		s.fleet.layers(n, ms)
	}
	recs := sortedRecords(s.last)
	appendUS, err := journalAppendProbe(filepath.Join(s.dir, "probe.jsonl"), recs)
	if err != nil {
		return err
	}
	ms.set("campaign.journal_append_us_p50", p50(appendUS), len(appendUS))
	ms.set("store.ingest_us_p50", p50(s.ingestUS), len(s.ingestUS))
	st := s.st.Stats()
	ms.set("store.bytes_per_record", ratio(float64(st.Bytes), float64(st.Records)), st.Records)

	// Solve a seeded sample of the journaled units again with the core
	// recorder on — the same number from every series, so the detector-on
	// series are always represented; each must reproduce its journaled
	// point exactly.
	rng := rand.New(rand.NewSource(b.seed))
	taken := map[campaign.SeriesKey]int{}
	var agg solveAgg
	for _, i := range rng.Perm(len(recs)) {
		r := recs[i]
		if taken[r.Unit.SeriesKey()] >= s.plan.rebuild {
			continue
		}
		taken[r.Unit.SeriesKey()]++
		p := s.c.Problems[r.Unit.Problem]
		cfg, err := s.c.SweepConfig(r.Unit)
		if err != nil {
			return err
		}
		pt, sample := rebuildPoint(ctx, p, cfg, r.Unit.Site)
		ph.attempted++
		if pt != r.Point {
			ph.fail("unit %s: rebuilt point %+v, journaled %+v", r.ID, pt, r.Point)
			continue
		}
		agg.add(sample)
	}
	agg.report(ms)
	p := s.c.Problems[s.plan.spec.Key()]
	probeOperator(p.A, p.InnerIters, ms)
	probeSandbox(ctx, ms)
	return nil
}

func sortedRecords(m map[string]campaign.Record) []campaign.Record {
	recs := make([]campaign.Record, 0, len(m))
	for _, r := range m {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs
}

// journalAppendProbe times Journal.Append of the run's own records into a
// scratch journal, in microseconds per record.
func journalAppendProbe(path string, recs []campaign.Record) ([]float64, error) {
	j, _, err := campaign.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	var us []float64
	for _, r := range recs {
		t0 := time.Now()
		if err := j.Append(r); err != nil {
			j.Close()
			return nil, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return us, j.Close()
}

// fleet is a dist coordinator on a loopback listener with two in-process
// workers, the setup of `paperfigs -fleet 2` with batch 4.
type fleet struct {
	host    *dist.Host
	srv     *http.Server
	rt      *timingTransport
	recs    []*trace.Recorder
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	round   atomic.Int64
	dead    chan struct{}
	deadErr atomic.Value
	once    sync.Once
}

const fleetWorkers = 2

func startFleet(b *bench, c *campaign.Compiled, traced bool) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{host: dist.NewHost(nil, nil), dead: make(chan struct{})}
	f.srv = &http.Server{Handler: f.host, ReadHeaderTimeout: 10 * time.Second}
	go f.srv.Serve(ln)
	url := "http://" + ln.Addr().String()
	// The workers get the coordinator's calibrated problems, as paperfigs
	// seeds its in-process fleet, so they never recalibrate.
	cache := dist.NewProblemCache()
	for key, p := range c.Problems {
		cache.Put(key, p)
	}
	f.rt = newTimingTransport(b.spans, distRoute, func(*http.Request) int64 { return f.round.Load() })
	wctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < fleetWorkers; i++ {
		var rec *trace.Recorder
		if traced {
			rec = trace.NewRecorder(0)
			f.recs = append(f.recs, rec)
		}
		w := dist.NewWorker(dist.WorkerConfig{
			Coordinator: url,
			Name:        fmt.Sprintf("bench-%d", i),
			Client:      &http.Client{Transport: f.rt, Timeout: 30 * time.Second},
			Problems:    cache,
			Poll:        20 * time.Millisecond,
			Recorder:    rec,
		})
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := w.Run(wctx); err != nil && wctx.Err() == nil {
				f.deadErr.Store(err)
				f.once.Do(func() { close(f.dead) })
			}
		}()
	}
	return f, nil
}

// runCampaign exposes one campaign to the fleet and waits for it; a worker
// that dies aborts the round instead of leaving it waiting forever.
func (f *fleet) runCampaign(ctx context.Context, c *campaign.Compiled, j *campaign.Journal, roundID int64, cfg dist.CoordinatorConfig) (map[string]campaign.Record, error) {
	f.round.Store(roundID)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-f.dead:
			cancel()
		case <-rctx.Done():
		}
	}()
	recs, err := f.host.RunCampaign(rctx, c, j, nil, cfg)
	if err != nil {
		if werr, ok := f.deadErr.Load().(error); ok {
			return nil, fmt.Errorf("fleet worker died: %w", werr)
		}
	}
	return recs, err
}

// harvest moves the workers' unit spans into the tracer.
func (f *fleet) harvest(t *tracer, roundID int64) {
	for _, r := range f.recs {
		t.addEvents(r.Events(), roundID, "")
		r.Reset()
	}
}

// layers reports the lease protocol's metrics.
func (f *fleet) layers(units int, ms metricSet) {
	claim, complete, trips := f.rt.get("dist.claim"), f.rt.get("dist.complete"), f.rt.total()
	ms.set("dist.claim_ms_p50", p50(claim), len(claim))
	ms.set("dist.complete_ms_p50", p50(complete), len(complete))
	ms.set("dist.round_trips_per_unit", ratio(float64(trips), float64(units)), trips)
	snap := f.host.Metrics().Snapshot()
	ms.set("dist.records_rejected", float64(snap["records_rejected"]), 1)
	ms.set("dist.duplicates", float64(snap["records_duplicate"]), 1)
}

func (f *fleet) stop() {
	f.host.Close()
	f.cancel()
	f.wg.Wait()
	f.srv.Close()
	f.rt.close()
}

// distRoute names a worker's call to the coordinator.
func distRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/leases":
		return "dist.claim"
	case filepath.Base(p) == "records":
		return "dist.complete"
	case filepath.Base(p) == "heartbeat":
		return "dist.heartbeat"
	default:
		return "dist.poll"
	}
}
