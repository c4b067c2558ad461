package main

import (
	"context"
	"math"
	"net/http"
	"sync"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/core"
	"sdcgmres/internal/expt"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/sandbox"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/trace"
	"sdcgmres/internal/vec"
)

// referenceRows fills the smoke-mode references: every unit solved once
// through the one-shot expt path, independent of campaign and dist.
func referenceRows(ctx context.Context, b *bench, c *campaign.Compiled, label string) error {
	for _, u := range c.Units {
		cfg, err := c.SweepConfig(u)
		if err != nil {
			return err
		}
		row, err := renderRow(label, cfg, expt.RunPoint(ctx, c.Problems[u.Problem], cfg, u.Site))
		if err != nil {
			return err
		}
		b.gold.put(row)
	}
	return nil
}

// solveSample is what one recorded nested solve says about the core,
// krylov, detect and sandbox layers.
type solveSample struct {
	outer       int
	innerSolves int
	// beforeFault counts inner solves that ran before the faulted one.
	beforeFault int
	innerMS     []float64
	outerSelfMS float64
	work        krylov.Work
	checks      int
	violations  int
	sandboxRuns int
}

// sampleSolve reads a solve's core recorder events and statistics. The
// fault strikes aggregate inner iteration site, which lies in inner solve
// ceil(site/inner).
func sampleSolve(events []trace.Event, res *core.Result, site, inner int) solveSample {
	s := solveSample{
		outer:      res.Stats.OuterIterations,
		work:       res.Stats.InnerWork,
		checks:     res.Stats.DetectorChecked,
		violations: res.Stats.Detections,
	}
	faultSolve := (site + inner - 1) / inner
	var solveStart, solveEnd, innerStart int64
	var innerTotal float64
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindSolveStart:
			solveStart = ev.T
		case trace.KindSolveEnd:
			solveEnd = ev.T
		case trace.KindInnerStart:
			innerStart = ev.T
			s.innerSolves++
			if ev.Outer < faultSolve {
				s.beforeFault++
			}
		case trace.KindInnerEnd:
			d := float64(ev.T-innerStart) / float64(time.Millisecond)
			s.innerMS = append(s.innerMS, d)
			innerTotal += d
		case trace.KindSandboxOutcome:
			s.sandboxRuns++
		}
	}
	s.outerSelfMS = float64(solveEnd-solveStart)/float64(time.Millisecond) - innerTotal
	return s
}

// solveAgg averages solve samples into the per-layer metrics. The count
// metrics repeat exactly for a given seed; the timings do not.
type solveAgg struct {
	n                                                     int
	outer, innerSolves, beforeFault, spmvs, checks, viols int
	sandboxRuns                                           int
	flops                                                 int64
	outerSelfMS                                           float64
	innerMS                                               []float64
}

// add takes one sample; the unit's own sandbox run (campaign unit or
// service job) adds one to the inner solves' sandbox runs.
func (a *solveAgg) add(s solveSample) {
	a.n++
	a.outer += s.outer
	a.innerSolves += s.innerSolves
	a.beforeFault += s.beforeFault
	a.spmvs += s.work.SpMVs
	a.flops += s.work.OrthoFlops
	a.checks += s.checks
	a.viols += s.violations
	a.sandboxRuns += s.sandboxRuns + 1
	a.outerSelfMS += s.outerSelfMS
	a.innerMS = append(a.innerMS, s.innerMS...)
}

func (a *solveAgg) report(ms metricSet) {
	n := float64(a.n)
	ms.set("core.outer_iters_per_unit", ratio(float64(a.outer), n), a.n)
	ms.set("core.inner_solves_per_unit", ratio(float64(a.innerSolves), n), a.n)
	ms.set("core.inner_solve_ms_p50", p50(a.innerMS), len(a.innerMS))
	ms.set("core.outer_self_ms_per_unit", ratio(a.outerSelfMS, n), a.n)
	ms.set("core.prefix_share", ratio(float64(a.beforeFault), float64(a.innerSolves)), a.innerSolves)
	ms.set("krylov.spmvs_per_unit", ratio(float64(a.spmvs), n), a.n)
	ms.set("krylov.ortho_mflop_per_unit", ratio(float64(a.flops)/1e6, n), a.n)
	ms.set("detect.checks_per_unit", ratio(float64(a.checks), n), a.n)
	ms.set("detect.violations_per_unit", ratio(float64(a.viols), n), a.n)
	ms.set("sandbox.runs_per_unit", ratio(float64(a.sandboxRuns), n), a.n)
}

// rebuildPoint solves one campaign unit the way expt.RunPoint does, with
// the core recorder attached, and returns the point RunPoint would have
// journaled.
func rebuildPoint(ctx context.Context, p *expt.Problem, cfg expt.SweepConfig, site int) (expt.SweepPoint, solveSample) {
	rec := trace.NewRecorder(0)
	inj := fault.NewInjector(cfg.Model, fault.Site{AggregateInner: site, Step: cfg.Step})
	ccfg := p.Config(cfg.Detector, []krylov.CoeffHook{inj})
	ccfg.Recorder = rec
	res, err := core.New(p.A, ccfg).SolveCtx(ctx, p.B, nil)
	pt := expt.SweepPoint{AggregateInner: site}
	if err != nil {
		pt.OuterIters = p.MaxOuter
		return pt, solveSample{}
	}
	pt.OuterIters = res.Stats.OuterIterations
	pt.Converged = res.Converged
	pt.Detections = res.Stats.Detections
	pt.FaultFired = inj.Fired()
	if res.Converged {
		pt.WrongAnswer = wrongAnswer(res.X)
	} else {
		pt.OuterIters = p.MaxOuter
	}
	return pt, sampleSolve(rec.Events(), res, site, p.InnerIters)
}

// wrongAnswer is expt's silent-failure test for b = A·1: a non-finite
// entry, or a forward error beyond any plausible bound.
func wrongAnswer(x []float64) bool {
	d := 0.0
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		d = math.Max(d, math.Abs(v-1))
	}
	return d > 1e3
}

// timedOp is an operator that times its own matrix-vector products.
type timedOp struct {
	a     *sparse.CSR
	spent time.Duration
}

func (o *timedOp) Rows() int { return o.a.Rows() }
func (o *timedOp) Cols() int { return o.a.Cols() }
func (o *timedOp) MatVec(dst, x []float64) {
	t0 := time.Now()
	o.a.MatVec(dst, x)
	o.spent += time.Since(t0)
}

// probeOperator times the workload's matrix on its own: CSR.MatVec, and a
// standalone inner-solve-sized GMRES whose time outside SpMV is the
// orthogonalization and least-squares share.
func probeOperator(a *sparse.CSR, inner int, ms metricSet) {
	x := vec.Ones(a.Cols())
	y := make([]float64, a.Rows())
	var us []float64
	for i := 0; i < 401; i++ {
		t0 := time.Now()
		a.MatVec(y, x)
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	spmv := p50(us)
	ms.set("sparse.spmv_us_p50", spmv, len(us))
	// Bytes a CSR product must move at least once: values, column indices
	// and gathered x per nonzero; row pointers and y per row. Computed
	// from the sizes, not measured.
	bytes := float64(a.NNZ())*(8+8+8) + float64(a.Rows())*(8+8)
	ms.set("sparse.spmv_gbs_computed", ratio(bytes, spmv*1e3), len(us))

	op := &timedOp{a: a}
	var total, rest []float64
	for i := 0; i < 41; i++ {
		op.spent = 0
		t0 := time.Now()
		if _, err := krylov.GMRES(op, y, nil, krylov.Options{MaxIter: inner}); err != nil {
			continue
		}
		d := time.Since(t0)
		total = append(total, float64(d)/float64(time.Millisecond))
		rest = append(rest, float64(d-op.spent)/float64(time.Millisecond))
	}
	ms.set("krylov.inner_gmres_ms", p50(total), len(total))
	ms.set("krylov.ortho_lsq_ms", p50(rest), len(rest))
}

// probeSandbox is the median cost of running a no-op guest under
// sandbox.RunCtx over calling it directly, in microseconds.
func probeSandbox(ctx context.Context, ms metricSet) {
	noop := func() error { return nil }
	var boxed, direct []float64
	for i := 0; i < 2001; i++ {
		t0 := time.Now()
		sandbox.RunCtx(ctx, 0, noop)
		t1 := time.Now()
		_ = noop()
		t2 := time.Now()
		boxed = append(boxed, float64(t1.Sub(t0))/float64(time.Microsecond))
		direct = append(direct, float64(t2.Sub(t1))/float64(time.Microsecond))
	}
	ms.set("sandbox.overhead_us", p50(boxed)-p50(direct), len(boxed))
}

// timingTransport times every HTTP round trip (until the response headers
// arrive), groups the timings by route name and records each as a span.
type timingTransport struct {
	base   http.RoundTripper
	spans  *tracer
	route  func(*http.Request) string
	parent func(*http.Request) int64

	mu sync.Mutex
	ms map[string][]float64
}

func newTimingTransport(spans *tracer, route func(*http.Request) string, parent func(*http.Request) int64) *timingTransport {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 4
	return &timingTransport{base: base, spans: spans, route: route, parent: parent, ms: map[string][]float64{}}
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t1 := time.Now()
	name := t.route(req)
	t.spans.add(0, t.parent(req), name, "", t0, t1)
	t.mu.Lock()
	t.ms[name] = append(t.ms[name], float64(t1.Sub(t0))/float64(time.Millisecond))
	t.mu.Unlock()
	return resp, err
}

// get returns a copy of one route's timings in milliseconds.
func (t *timingTransport) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ms[name]...)
}

// total counts every round trip made.
func (t *timingTransport) total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, v := range t.ms {
		n += len(v)
	}
	return n
}

// reset forgets every timing.
func (t *timingTransport) reset() {
	t.mu.Lock()
	t.ms = map[string][]float64{}
	t.mu.Unlock()
}

func (t *timingTransport) close() { t.base.(*http.Transport).CloseIdleConnections() }
