// Package expt implements the paper's experimental campaign (Section VII):
// failure-free calibration of the nested solver, single-SDC fault sweeps
// over every inner-iteration position (Figures 3 and 4), the Table I matrix
// property report, and the summary statistics of Section VII-E.
package expt

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sdcgmres/internal/core"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/vec"
)

// Problem is a calibrated experiment instance: a linear system plus nested
// solver parameters chosen so the failure-free outer iteration count lands
// where the paper's does (9 for Poisson, 28 for mult_dcop_03).
type Problem struct {
	// Name labels the problem in reports.
	Name string
	// A is the operator; B the right-hand side (A·1, a consistent system).
	A *sparse.CSR
	B []float64
	// InnerIters is the fixed inner iteration count (paper: 25).
	InnerIters int
	// OuterTol is the calibrated convergence threshold.
	OuterTol float64
	// MaxOuter caps outer iterations for faulted runs.
	MaxOuter int
	// FailureFreeOuter is the verified failure-free outer count.
	FailureFreeOuter int
	// InnerPolicy is the inner solves' projected least-squares policy
	// (Section VI-D). The paper's figures use Approach 1 — the plain
	// triangular solve — which is also the default here.
	InnerPolicy krylov.LSQPolicy

	// replay records the inner solves of the last FailureFree run, so
	// faulted runs replay the prefix they share with it.
	replay *core.Replay
}

// Config builds a core.Config for this problem with the given detector.
func (p *Problem) Config(det core.DetectorConfig, hooks []krylov.CoeffHook) core.Config {
	return core.Config{
		MaxOuter: p.MaxOuter,
		OuterTol: p.OuterTol,
		Inner:    core.InnerConfig{Iterations: p.InnerIters, Hooks: hooks, Policy: p.InnerPolicy},
		Detector: det,
	}
}

// Calibrate finds an outer tolerance that makes the failure-free nested
// solve converge in exactly targetOuter outer iterations, by running once
// with an unreachable tolerance and placing the threshold between the
// residuals of iterations targetOuter−1 and targetOuter (geometric mean).
// The paper does not publish its tolerances; pinning the failure-free
// iteration count to the published one (9, 28) reproduces the experimental
// setup exactly where it matters. The returned problem has been re-verified.
func Calibrate(name string, a *sparse.CSR, innerIters, targetOuter int) (*Problem, error) {
	if targetOuter < 2 {
		return nil, fmt.Errorf("expt: target outer count %d too small", targetOuter)
	}
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))

	probe := core.New(a, core.Config{
		MaxOuter: targetOuter + 10,
		OuterTol: 1e-300, // unreachable: record the full residual history
		Inner:    core.InnerConfig{Iterations: innerIters},
	})
	res, replay, err := probe.SolveRecording(context.Background(), b, nil, math.MaxInt)
	if err != nil {
		return nil, fmt.Errorf("expt: calibration probe failed: %w", err)
	}
	h := res.ResidualHistory
	if len(h) < targetOuter {
		return nil, fmt.Errorf("expt: probe ran only %d outer iterations, need %d", len(h), targetOuter)
	}
	lo := h[targetOuter-1] // residual after the target-th iteration
	hi := h[targetOuter-2] // residual one iteration earlier
	if !(lo < hi) {
		return nil, fmt.Errorf("expt: residual not decreasing at iteration %d (%.3g -> %.3g); cannot calibrate", targetOuter, hi, lo)
	}
	tol := math.Sqrt(lo * hi)

	p := &Problem{
		Name:       name,
		A:          a,
		B:          b,
		InnerIters: innerIters,
		OuterTol:   tol,
		MaxOuter:   4*targetOuter + 20,
		// The verification solve below repeats the probe's first
		// targetOuter inner solves: it replays them from the probe's
		// record and keeps only its own.
		replay: replay,
	}
	ff, err := p.FailureFree()
	if err != nil {
		return nil, err
	}
	if ff != targetOuter {
		return nil, fmt.Errorf("expt: calibration verification got %d outer iterations, want %d", ff, targetOuter)
	}
	p.FailureFreeOuter = ff
	return p, nil
}

// FailureFree runs the problem without faults and returns the outer
// iteration count. It records the run's inner solves, so every later
// faulted run of p (RunPoint, Sweep, MonteCarlo) serves the inner solves
// before its fault from the record instead of repeating them; call it
// before any of those, not concurrently with them.
func (p *Problem) FailureFree() (int, error) {
	s := core.New(p.A, p.Config(core.DetectorConfig{}, nil))
	s.UseReplay(p.replay)
	res, replay, err := s.SolveRecording(context.Background(), p.B, nil, math.MaxInt)
	if err != nil {
		return 0, err
	}
	p.replay = replay
	if !res.Converged {
		return 0, fmt.Errorf("expt: failure-free solve did not converge (residual %.3g)", res.FinalResidual)
	}
	return res.Stats.OuterIterations, nil
}

// PoissonProblem builds and calibrates the paper's SPD problem at grid size
// n (paper: n = 100, 25 inner iterations, 9 failure-free outer iterations —
// smaller grids calibrate to smaller outer counts).
func PoissonProblem(n, innerIters, targetOuter int) (*Problem, error) {
	return Calibrate(fmt.Sprintf("poisson-%dx%d", n, n), gallery.Poisson2D(n), innerIters, targetOuter)
}

// CircuitProblem builds and calibrates the nonsymmetric surrogate problem
// (paper: mult_dcop_03, 25 inner iterations, 28 failure-free outer
// iterations).
func CircuitProblem(n, innerIters, targetOuter int) (*Problem, error) {
	return Calibrate(fmt.Sprintf("circuit-dcop-%d", n), gallery.CircuitDCOP(gallery.DefaultCircuitDCOPConfig(n)), innerIters, targetOuter)
}

// SweepPoint is one experiment of a fault sweep: a single SDC at the given
// aggregate inner iteration, and the outer iterations the nested solve then
// needed.
type SweepPoint struct {
	// AggregateInner is the faulted aggregate inner iteration (x-axis of
	// Figures 3 and 4).
	AggregateInner int `json:"aggregate_inner"`
	// OuterIters is the outer iteration count to convergence; equals the
	// sweep's MaxOuter cap when Converged is false.
	OuterIters int `json:"outer_iters"`
	// Converged reports whether the solve reached the tolerance.
	Converged bool `json:"converged"`
	// Detections is the number of detector violations (0 when disabled).
	Detections int `json:"detections,omitempty"`
	// FaultFired confirms the injector actually struck.
	FaultFired bool `json:"fault_fired"`
	// WrongAnswer reports a silent failure: converged by residual but the
	// solution is far from the true one (never observed; tracked to prove
	// it).
	WrongAnswer bool `json:"wrong_answer,omitempty"`
}

// SweepConfig parameterizes a fault sweep.
type SweepConfig struct {
	// Model is the fault class to inject.
	Model fault.Model
	// Step picks first/last MGS step (Figures 3a/4a vs 3b/4b).
	Step fault.StepSelector
	// Detector configures detection in the inner solves.
	Detector core.DetectorConfig
	// Stride samples every Stride-th aggregate inner iteration (1 = the
	// paper's full sweep).
	Stride int
	// Workers bounds concurrent experiments (0 = GOMAXPROCS).
	Workers int
	// Pool, when non-nil, runs each experiment's solver kernels on a
	// persistent worker pool. Kernels are bitwise deterministic for any
	// pool width, so sweep outputs are identical with or without it.
	Pool *kernel.Pool
}

// Sweep injects one SDC at every (strided) aggregate inner iteration of the
// failure-free schedule and records the outer iteration counts — one series
// of one subplot of Figure 3 or 4. Cancelling ctx stops the campaign early:
// workers finish their in-flight experiment and the points not yet run are
// returned zero-valued (AggregateInner == 0), so partial sweeps are
// distinguishable from completed ones.
func Sweep(ctx context.Context, p *Problem, cfg SweepConfig) []SweepPoint {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	total := p.FailureFreeOuter * p.InnerIters
	var sites []int
	for t := 1; t <= total; t += cfg.Stride {
		sites = append(sites, t)
	}
	points := make([]SweepPoint, len(sites))

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sites) {
		workers = len(sites)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(sites) {
					return
				}
				points[i] = RunPoint(ctx, p, cfg, sites[i])
			}
		}()
	}
	wg.Wait()
	return points
}

// RunPoint executes a single faulted experiment: one SDC at the given
// aggregate inner iteration under cfg's fault model and detector. It is the
// unit of work both Sweep and the campaign engine execute, so one-shot and
// journaled campaigns produce identical records for identical sites.
func RunPoint(ctx context.Context, p *Problem, cfg SweepConfig, aggregate int) SweepPoint {
	res, fired, err := p.solveFaulted(ctx, cfg.Model, fault.Site{AggregateInner: aggregate, Step: cfg.Step}, cfg.Detector, cfg.Pool)
	pt := SweepPoint{AggregateInner: aggregate}
	if ctx.Err() != nil {
		// Canceled mid-experiment: report the site as not run.
		return SweepPoint{}
	}
	if err != nil {
		// Loud failure (e.g. rank deficiency): recorded as non-converged at
		// the cap — visible, not silent.
		pt.OuterIters = p.MaxOuter
		return pt
	}
	pt.OuterIters = res.Stats.OuterIterations
	pt.Converged = res.Converged
	pt.Detections = res.Stats.Detections
	pt.FaultFired = fired
	if res.Converged {
		pt.WrongAnswer = solutionWrong(p, res.X)
	}
	if !res.Converged {
		pt.OuterIters = p.MaxOuter
	}
	return pt
}

// solveFaulted solves p with one SDC of the given model at site and reports
// whether it struck. It is the one solve path of faulted experiments, so
// all of them replay the prefix recorded by FailureFree.
func (p *Problem) solveFaulted(ctx context.Context, model fault.Model, site fault.Site, det core.DetectorConfig, pool *kernel.Pool) (*core.Result, bool, error) {
	inj := fault.NewInjector(model, site)
	ccfg := p.Config(det, []krylov.CoeffHook{inj})
	ccfg.Pool = pool
	s := core.New(p.A, ccfg)
	s.UseReplay(p.replay)
	res, err := s.SolveCtx(ctx, p.B, nil)
	return res, inj.Fired(), err
}

// solutionWrong checks the converged solution against the known truth
// (x = 1 since B = A·1): a silent failure is a residual that passed the
// tolerance while the solution is wrong. With b = A·1 the residual bound
// makes this impossible unless the solve was corrupted outside the residual
// computation — which is exactly what we are watching for.
func solutionWrong(p *Problem, x []float64) bool {
	// Forward error vs residual-implied bound: flag only gross errors.
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	d := 0.0
	for _, v := range x {
		if a := math.Abs(v - 1); a > d {
			d = a
		}
	}
	return d > 1e3 // forward error amplified beyond any plausible κ‖r‖ bound
}

// MaxOuter returns the maximum outer iteration count across points.
func MaxOuter(points []SweepPoint) int {
	m := 0
	for _, p := range points {
		if p.OuterIters > m {
			m = p.OuterIters
		}
	}
	return m
}

// CountAbove returns how many points needed more than base outer
// iterations.
func CountAbove(points []SweepPoint, base int) int {
	n := 0
	for _, p := range points {
		if p.OuterIters > base {
			n++
		}
	}
	return n
}
