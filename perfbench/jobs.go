package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdcgmres/client"
	"sdcgmres/internal/core"
	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/qos"
	"sdcgmres/internal/service"
	"sdcgmres/internal/trace"
	"sdcgmres/internal/vec"
)

const (
	// jobWorkers solver goroutines serve the two closed-loop clients, one
	// per tenant: four busy goroutines at most on two CPUs, and the
	// clients mostly sleep between polls.
	jobWorkers = 2
	// jobPoll is the clients' GET interval while a job runs: short next
	// to a ~50 ms job, so latency measures the job, not the poll.
	jobPoll = 5 * time.Millisecond
	// jobRebuild is how many jobs the traced run solves again with the
	// core recorder on.
	jobRebuild = 8
)

var tenants = []string{"tenant-a", "tenant-b"}

// jobsPlan sizes the job workload.
type jobsPlan struct {
	n int // Poisson grid side
	// maxSite bounds the fault sites: 1..maxSite. The fault-free solve of
	// Poisson 64² under the service defaults (tolerance 1e-8) converges in
	// 7 outer iterations, 175 inner ones; a site beyond that is never
	// reached, and the job would carry no fault.
	maxSite int
	rebuild int
}

func planJobs(b *bench) jobsPlan {
	if b.smoke {
		return jobsPlan{n: 32, maxSite: 50, rebuild: 2}
	}
	return jobsPlan{n: 64, maxSite: 175, rebuild: jobRebuild}
}

// jobSpecs is every distinct single-fault FT-GMRES job of the plan —
// large/slight/tiny × first/last MGS × each site — in seeded order.
func jobSpecs(p jobsPlan, seed int64) []service.JobSpec {
	var specs []service.JobSpec
	for _, class := range []string{"large", "slight", "tiny"} {
		for _, step := range []string{"first", "last"} {
			for at := 1; at <= p.maxSite; at++ {
				specs = append(specs, service.JobSpec{
					Matrix: service.MatrixSpec{Kind: "poisson", N: p.n},
					Solver: service.SolverSpec{Kind: "ftgmres", Detector: true, Response: "restart"},
					Fault:  &service.FaultSpec{Class: class, At: at, Step: step},
				})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

func setupJobsHTTP(ctx context.Context, b *bench, traced bool) (instance, error) {
	return setupJobs(ctx, b, traced, planJobs(b))
}

// jobsInstance is a service engine behind its HTTP server on a loopback
// listener, with two clients.
type jobsInstance struct {
	plan    jobsPlan
	engine  *service.Engine
	cache   *memo.Cache
	intro   *obs.Introspector
	srv     *http.Server
	rt      *timingTransport
	hc      *http.Client
	url     string
	clients []*client.Client
	traced  bool
	specs   []service.JobSpec
	next    atomic.Int64

	// Traced-phase observations; served maps a spec digest to the record
	// the server answered with.
	mu       sync.Mutex
	views    []service.JobView
	noticeMS []float64
	served   map[string]service.SolveRecord
}

// spanKey carries the job span ID to the transport, so each HTTP round
// trip becomes a child of its job.
type spanKey struct{}

func ctxParent(r *http.Request) int64 {
	id, _ := r.Context().Value(spanKey{}).(int64)
	return id
}

func jobRoute(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost:
		return "http.submit"
	case strings.HasSuffix(r.URL.Path, "/trace"):
		return "http.trace"
	case r.URL.Path == "/metrics":
		return "http.metrics"
	default:
		return "http.get"
	}
}

func setupJobs(ctx context.Context, b *bench, traced bool, plan jobsPlan) (*jobsInstance, error) {
	j := &jobsInstance{plan: plan, traced: traced, cache: memo.New(memo.Config{})}
	// Observability at the daemon's defaults: info-level text logs with a
	// 1024-record ring and the runtime introspector. The log text is
	// rendered as in production and then discarded.
	log := obs.NewLogger(obs.Options{Writer: io.Discard, Ring: 1024})
	cfg := service.Config{
		Workers: jobWorkers,
		Memo:    j.cache,
		Log:     log,
		QoS:     &qos.Config{Tenants: map[string]qos.TenantConfig{tenants[0]: {Weight: 1}, tenants[1]: {Weight: 1}}},
	}
	if traced {
		// A job's ring holds its solve and inner spans with room to spare;
		// the client fetches each trace as soon as the job ends, so few
		// finished jobs need to stay resident.
		cfg.TraceCapacity, cfg.Retain = 1<<14, 64
	}
	j.engine = service.NewEngine(cfg)
	j.engine.Start()
	j.intro = obs.NewIntrospector(log)
	j.intro.Start(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		j.close()
		return nil, err
	}
	j.srv = &http.Server{
		Handler:           service.NewServer(j.engine, service.ServerOptions{Log: log, Introspector: j.intro}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go j.srv.Serve(ln)
	j.url = "http://" + ln.Addr().String()
	j.rt = newTimingTransport(b.spans, jobRoute, ctxParent)
	j.hc = &http.Client{Transport: j.rt, Timeout: 60 * time.Second}
	for range tenants {
		j.clients = append(j.clients, client.New(j.url, j.hc))
	}
	j.specs = jobSpecs(plan, b.seed)
	if err := j.warmUp(ctx); err != nil {
		j.close()
		return nil, err
	}
	j.rt.reset()
	return j, nil
}

// warmUp warms each client's connection and the engine with one
// fault-free solve per client; no measured spec shares their digests.
func (j *jobsInstance) warmUp(ctx context.Context) error {
	m := service.MatrixSpec{Kind: "poisson", N: j.plan.n}
	specs := []service.JobSpec{{Matrix: m}, {Matrix: m, Solver: service.SolverSpec{Detector: true, Response: "restart"}}}
	errs := make([]error, len(j.clients))
	var wg sync.WaitGroup
	for i, cl := range j.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := specs[i]
			spec.Tenant = tenants[i]
			view, err := cl.SubmitJob(ctx, spec)
			if err == nil && !view.State.Terminal() {
				view, err = cl.WaitJob(ctx, view.ID, jobPoll)
			}
			if err == nil {
				err = solvedCorrectly(view)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// solvedCorrectly is the jobs-http gate: done, converged, the fault (if
// any) struck, and no wrong answer (forward error within expt's bound).
func solvedCorrectly(v service.JobView) error {
	switch {
	case v.State != service.StateDone:
		return fmt.Errorf("job %s: state %s: %s", v.ID, v.State, v.Error)
	case v.Result == nil:
		return fmt.Errorf("job %s: no result", v.ID)
	case !v.Result.Converged:
		return fmt.Errorf("job %s: not converged (residual %g)", v.ID, v.Result.FinalResidual)
	case v.Spec.Fault != nil && !v.Result.FaultFired:
		return fmt.Errorf("job %s: fault did not fire", v.ID)
	case !(v.Result.ForwardError <= 1e3):
		return fmt.Errorf("job %s: wrong answer (forward error %g)", v.ID, v.Result.ForwardError)
	}
	return nil
}

func (j *jobsInstance) run(ctx context.Context, b *bench) (*phase, error) {
	ph := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(b.seconds * float64(time.Second)))
	for i, cl := range j.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Run for the set time and to at least minUnits answers, so the
			// p90 has ten samples beyond it.
			for (time.Now().Before(deadline) || done.Load() < minUnits) && ctx.Err() == nil {
				k := int(j.next.Add(1)) - 1
				if k >= len(j.specs) {
					return // every distinct spec submitted
				}
				spec := j.specs[k]
				spec.Tenant = tenants[i]
				latMS, err := j.one(ctx, b, cl, spec)
				done.Add(1)
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.fail("%v", err)
				} else {
					ph.units++
					ph.lat = append(ph.lat, latMS)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph, nil
}

// one submits a job and polls it to a terminal state, as a caller of
// `solvectl submit -wait` does, and checks the answer.
func (j *jobsInstance) one(ctx context.Context, b *bench, cl *client.Client, spec service.JobSpec) (float64, error) {
	jobID := b.spans.id()
	jctx := context.WithValue(ctx, spanKey{}, jobID)
	t0 := time.Now()
	view, err := cl.SubmitJob(jctx, spec)
	if err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	if !view.State.Terminal() {
		if view, err = cl.WaitJob(jctx, view.ID, jobPoll); err != nil {
			return 0, fmt.Errorf("wait %s: %w", view.ID, err)
		}
	}
	done := time.Now()
	if err := solvedCorrectly(view); err != nil {
		return 0, err
	}
	if j.traced {
		b.spans.add(jobID, 0, "client.job", view.CID, t0, done)
		if err := j.traceJob(jctx, b, jobID, view, done); err != nil {
			return 0, err
		}
	}
	return float64(done.Sub(t0)) / float64(time.Millisecond), nil
}

// traceJob adds a finished job's service-side spans: queue wait and run
// from its timestamps, and the solve and inner-solve spans from its
// flight-recorder trace.
func (j *jobsInstance) traceJob(ctx context.Context, b *bench, jobID int64, v service.JobView, done time.Time) error {
	j.mu.Lock()
	j.views = append(j.views, v)
	if j.served == nil {
		j.served = map[string]service.SolveRecord{}
	}
	j.served[service.SpecDigest(&v.Spec)] = *v.Result
	if v.FinishedAt != nil {
		j.noticeMS = append(j.noticeMS, float64(done.Sub(*v.FinishedAt))/float64(time.Millisecond))
	}
	j.mu.Unlock()
	if v.StartedAt == nil || v.FinishedAt == nil {
		return nil
	}
	b.spans.add(0, jobID, "service.queue", v.CID, v.SubmittedAt, *v.StartedAt)
	runID := b.spans.add(0, jobID, "service.run", v.CID, *v.StartedAt, *v.FinishedAt)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, j.url+"/v1/jobs/"+v.ID+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := j.hc.Do(req)
	if err != nil {
		return fmt.Errorf("trace %s: %w", v.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace %s: status %d", v.ID, resp.StatusCode)
	}
	events, err := trace.ReadJSONL(resp.Body)
	if err != nil {
		return fmt.Errorf("trace %s: %w", v.ID, err)
	}
	b.spans.addEvents(events, runID, v.CID)
	return nil
}

func (j *jobsInstance) close() {
	if j.srv != nil {
		j.srv.Close()
	}
	if j.rt != nil {
		j.rt.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j.engine.Shutdown(ctx)
	j.intro.Stop()
}

// layers reports the job workload's per-layer metrics after a traced
// phase.
func (j *jobsInstance) layers(ctx context.Context, b *bench, ph *phase, ms metricSet) error {
	var queue, run []float64
	for _, v := range j.views {
		if v.StartedAt != nil && v.FinishedAt != nil {
			queue = append(queue, float64(v.StartedAt.Sub(v.SubmittedAt))/float64(time.Millisecond))
			run = append(run, float64(v.FinishedAt.Sub(*v.StartedAt))/float64(time.Millisecond))
		}
	}
	ms.set("service.queue_wait_ms_p50", p50(queue), len(queue))
	ms.set("service.run_ms_p50", p50(run), len(run))
	ms.set("service.notice_lag_ms_p50", p50(j.noticeMS), len(j.noticeMS))
	gets := j.rt.get("http.get")
	ms.set("service.polls_per_job", ratio(float64(len(gets)), float64(ph.units)), len(gets))
	submits := j.rt.get("http.submit")
	ms.set("http.submit_ms_p50", p50(submits), len(submits))
	ms.set("http.get_ms_p50", p50(gets), len(gets))
	st := j.cache.Stats()
	ms.set("memo.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)), int(st.Hits+st.Misses))
	if err := j.qosMetrics(ctx, ms); err != nil {
		return err
	}

	// Timed calls into the request-path layers, after the timed phase.
	var scrapeMS []float64
	var scrapeBytes int
	for i := 0; i < 41; i++ {
		t0 := time.Now()
		text, err := j.clients[0].Metrics(ctx)
		if err != nil {
			return fmt.Errorf("metrics probe: %w", err)
		}
		scrapeMS = append(scrapeMS, float64(time.Since(t0))/float64(time.Millisecond))
		scrapeBytes = len(text)
	}
	ms.set("obs.scrape_ms", p50(scrapeMS), len(scrapeMS))
	ms.set("obs.scrape_bytes", float64(scrapeBytes), 1)
	var getNS []float64
	for i := 0; i < 2001; i++ {
		spec := j.specs[i%len(j.specs)]
		t0 := time.Now()
		j.cache.Get(memo.JobKey(service.SpecDigest(&spec)))
		getNS = append(getNS, float64(time.Since(t0)))
	}
	ms.set("memo.get_ns_p50", p50(getNS), len(getNS))
	spec := j.specs[0]
	var buildMS []float64
	for i := 0; i < 41; i++ {
		t0 := time.Now()
		if _, _, err := service.BuildMatrix(spec.Matrix); err != nil {
			return err
		}
		buildMS = append(buildMS, float64(time.Since(t0))/float64(time.Millisecond))
	}
	ms.set("service.build_matrix_ms", p50(buildMS), len(buildMS))

	// Solve the first specs of the seeded order again with the core
	// recorder on; each must reproduce the record the server answered.
	var agg solveAgg
	for _, spec := range j.specs[:min(j.plan.rebuild, len(j.specs))] {
		want, ok := j.served[service.SpecDigest(&spec)]
		if !ok {
			continue // not reached in a very short phase
		}
		rec, sample, err := rebuildJob(ctx, spec)
		if err != nil {
			return err
		}
		ph.attempted++
		got := *rec
		want.ElapsedMS, got.ElapsedMS = 0, 0
		a, _ := json.Marshal(want)
		c, _ := json.Marshal(got)
		if string(a) != string(c) {
			ph.fail("spec %s: rebuilt record %s, served %s", service.SpecDigest(&spec), c, a)
			continue
		}
		agg.add(sample)
	}
	agg.report(ms)
	a, _, err := service.BuildMatrix(spec.Matrix)
	if err != nil {
		return err
	}
	probeOperator(a, 25, ms)
	probeSandbox(ctx, ms)
	return nil
}

// qosMetrics reads each tenant's admitted and shed counts from the
// scheduler's Prometheus exposition.
func (j *jobsInstance) qosMetrics(ctx context.Context, ms metricSet) error {
	var buf strings.Builder
	j.engine.WriteQoSMetrics(&buf)
	counts := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		line := sc.Text()
		for _, fam := range []string{"admitted", "shed"} {
			prefix := "solved_qos_" + fam + "_total{"
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			labels, value, ok := strings.Cut(strings.TrimPrefix(line, prefix), "} ")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return fmt.Errorf("qos metrics: %q: %w", line, err)
			}
			for _, t := range tenants {
				if strings.Contains(labels, `tenant="`+t+`"`) {
					counts["qos."+t+"."+fam] += v
				}
			}
		}
	}
	for _, t := range tenants {
		for _, fam := range []string{"admitted", "shed"} {
			name := "qos." + t + "." + fam
			ms.set(name, counts[name], 1)
		}
	}
	return nil
}

// rebuildJob solves a job spec the way the service runner does for these
// specs (service defaults: 25 inner iterations, 60 outer, tolerance 1e-8,
// MGS, fallback least squares; Frobenius detector with restart), with
// the core recorder attached.
func rebuildJob(ctx context.Context, spec service.JobSpec) (*service.SolveRecord, solveSample, error) {
	a, name, err := service.BuildMatrix(spec.Matrix)
	if err != nil {
		return nil, solveSample{}, err
	}
	rhs := make([]float64, a.Rows())
	a.MatVec(rhs, vec.Ones(a.Cols()))
	model, err := service.ParseFaultModel(spec.Fault.Class)
	if err != nil {
		return nil, solveSample{}, err
	}
	step, err := service.ParseStep(spec.Fault.Step)
	if err != nil {
		return nil, solveSample{}, err
	}
	inj := fault.NewInjector(model, fault.Site{AggregateInner: spec.Fault.At, Step: step})
	rec := trace.NewRecorder(0)
	cfg := core.Config{
		MaxOuter: 60,
		OuterTol: 1e-8,
		Inner: core.InnerConfig{Iterations: 25, Ortho: krylov.MGS, Policy: krylov.LSQFallback,
			Hooks: []krylov.CoeffHook{inj}},
		Detector: core.DetectorConfig{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseRestartInner},
		Recorder: rec,
	}
	res, err := core.New(a, cfg).SolveCtx(ctx, rhs, nil)
	if err != nil {
		return nil, solveSample{}, err
	}
	out := service.RecordFromCore(name, a, res, 0)
	out.FaultInjected, out.FaultFired = true, inj.Fired()
	return out, sampleSolve(rec.Events(), res, spec.Fault.At, 25), nil
}
