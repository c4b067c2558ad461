package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"

	"sdcgmres/internal/krylov"
	"sdcgmres/internal/sparse"
)

// Replay records the inner solves of one FT-GMRES solve that are provably
// failure-free, so that faulted solves of the same problem can skip the
// prefix they share with it (prefix replay).
//
// An inner solve is a pure function of its input q_j while every
// coefficient hook is inert and the detector passes every coefficient:
// the kernels are bitwise deterministic at any pool width. A solver with a
// Replay attached (UseReplay) therefore serves z_j from the record instead
// of running inner solve j exactly when
//
//  1. every configured hook is a krylov.QuietHook that is quiet through
//     aggregate inner iteration j·Iterations;
//  2. the detector, if enabled, would not flag the recorded largest |h|;
//  3. the inner configuration (operator, iterations, orthogonalization,
//     least-squares policy and truncation) matches the recorded one, and
//     no Recorder, Precond, WrapOperator, RobustFirstSolve or OuterFCG is
//     set;
//  4. q_j's SHA-256 digest matches the recorded one bit for bit.
//
// A replayed inner solve adds its recorded statistics — inner iterations,
// work and detector checks — so the Result is bitwise identical to a run
// without the record, apart from Stats.ReplayedInner. A Replay is
// read-only once recorded and safe to share between concurrent solvers.
type Replay struct {
	a     *sparse.CSR
	inner ReplayKey
	steps []replayStep
	// limit caps len(steps) while the record is being made.
	limit int
}

// replayStep is the record of inner solve j.
type replayStep struct {
	digest [sha256.Size]byte
	z      []float64
	iters  int
	work   krylov.Work
	coeffTally
}

// coeffTally is the coefficient hook a recorded inner solve runs last: it
// counts the coefficients (the checks a detector would make) and keeps
// their largest magnitude, +Inf when any was non-finite.
type coeffTally struct {
	coeffs  int
	maxAbsH float64
}

// Observe implements krylov.CoeffHook.
func (t *coeffTally) Observe(_ krylov.CoeffContext, h float64) (float64, error) {
	t.coeffs++
	switch a := math.Abs(h); {
	case math.IsNaN(a):
		t.maxAbsH = math.Inf(1)
	case a > t.maxAbsH:
		t.maxAbsH = a
	}
	return h, nil
}

// Len returns the number of recorded inner solves (0 for a nil record).
func (r *Replay) Len() int {
	if r == nil {
		return 0
	}
	return len(r.steps)
}

// ReplayKey is the part of the inner configuration a recorded z_j depends
// on besides the operator and q_j: records made on one operator under
// equal keys are interchangeable.
type ReplayKey struct {
	iters  int
	ortho  krylov.OrthoMethod
	policy krylov.LSQPolicy
	rrTol  float64
}

// ReplayKey returns the key of the records this solver makes and accepts.
func (s *Solver) ReplayKey() ReplayKey {
	c := s.cfg.Inner
	return ReplayKey{iters: c.Iterations, ortho: c.Ortho, policy: c.Policy, rrTol: c.RRTol}
}

// replayable reports whether the configuration keeps inner solves pure
// functions of q_j (condition 3, apart from the operator and the key).
func (s *Solver) replayable() bool {
	in := s.cfg.Inner
	return s.cfg.Outer == OuterFGMRES && s.cfg.Recorder == nil && in.Precond == nil &&
		in.WrapOperator == nil && !in.RobustFirstSolve
}

// UseReplay attaches a failure-free record: from then on the solver serves
// inner solves from it wherever that is provably exact (see Replay). A nil
// record, or one made for another operator or inner configuration, turns
// replay off.
func (s *Solver) UseReplay(r *Replay) {
	if r != nil && (r.a != s.a || r.inner != s.ReplayKey() || !s.replayable()) {
		r = nil
	}
	s.replay = r
}

// quietThrough reports whether every hook is a krylov.QuietHook that is
// inert for all of inner solve j, i.e. through aggregate inner iteration
// j·Iterations. It must be asked before the solve: a fired injector is
// quiet forever afterwards.
func (s *Solver) quietThrough(j int) bool {
	for _, h := range s.cfg.Inner.Hooks {
		qh, ok := h.(krylov.QuietHook)
		if !ok || qh.QuietBefore() <= j*s.cfg.Inner.Iterations {
			return false
		}
	}
	return true
}

// replayed returns the record that may stand in for inner solve j on
// input q, or nil when the solve must run. quiet is quietThrough(j).
func (s *Solver) replayed(j int, q []float64, quiet bool) *replayStep {
	if s.replay == nil || j > len(s.replay.steps) || !quiet {
		return nil
	}
	st := &s.replay.steps[j-1]
	if s.det != nil && s.det.WouldDetect(st.maxAbsH) {
		return nil
	}
	if digest(q) != st.digest {
		return nil
	}
	return st
}

// SolveRecording is SolveCtx that also records the solve's provably
// failure-free prefix for replay. Inner solve j joins the record when
// every earlier one did and
//
//   - every hook is a krylov.QuietHook quiet through j·Iterations, asked
//     before the solve;
//   - the detector, if enabled, saw no violation and halted nothing
//     during it;
//   - the sandbox reported no failure.
//
// A one-shot injector aimed at site t therefore leaves a record of the
// inner solves before t, bit for bit the failure-free run's prefix. Inner
// solves served from an attached record join it too, so a solve extends
// the record it was given. The record stops after maxSteps inner solves,
// and only those are copied. The Replay is nil when maxSteps < 1, the
// configuration cannot be replayed (see Replay) or the solve fails.
func (s *Solver) SolveRecording(ctx context.Context, b, x0 []float64, maxSteps int) (*Result, *Replay, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if maxSteps < 1 || !s.replayable() {
		res, err := s.solve(ctx, b, x0, nil)
		return res, nil, err
	}
	rec := &Replay{a: s.a, inner: s.ReplayKey(), limit: maxSteps}
	res, err := s.solve(ctx, b, x0, rec)
	if err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// precondition computes z_j for the outer iteration: served from the
// attached record when that is provably exact, by an inner solve
// otherwise. With rp non-nil it also appends step j to rp when j is the
// next step in order, within rp's limit and provably failure-free (see
// SolveRecording).
func (s *Solver) precondition(ctx context.Context, j int, z, q []float64, stats *Stats, rp *Replay) {
	quiet := (rp != nil || s.replay != nil) && s.quietThrough(j)
	if rp != nil && (j != len(rp.steps)+1 || j > rp.limit || !quiet) {
		rp = nil
	}
	if st := s.replayed(j, q, quiet); st != nil {
		copy(z, st.z)
		stats.InnerIterations += st.iters
		stats.InnerWork.Add(st.work)
		stats.ReplayedInner++
		if s.det != nil {
			s.det.CountPassed(st.coeffs)
		}
		if rp != nil {
			rp.steps = append(rp.steps, *st)
		}
		return
	}
	if rp == nil {
		s.innerSolve(ctx, j, z, q, stats, nil)
		return
	}
	st := replayStep{digest: digest(q)}
	before := *stats
	violations := 0
	if s.det != nil {
		violations = s.det.Stats().Violations
	}
	s.innerSolve(ctx, j, z, q, stats, &st.coeffTally)
	// A restart always follows a halt, so halts cover both.
	if stats.SandboxFailures != before.SandboxFailures || stats.InnerHalts != before.InnerHalts ||
		(s.det != nil && s.det.Stats().Violations != violations) {
		return
	}
	st.z = slices.Clone(z)
	st.iters = stats.InnerIterations - before.InnerIterations
	st.work = krylov.Work{
		SpMVs:      stats.InnerWork.SpMVs - before.InnerWork.SpMVs,
		OrthoFlops: stats.InnerWork.OrthoFlops - before.InnerWork.OrthoFlops,
	}
	rp.steps = append(rp.steps, st)
}

// digest hashes the bits of q without copying it.
func digest(q []float64) [sha256.Size]byte {
	h := sha256.New()
	var buf [512]byte
	for len(q) > 0 {
		k := min(len(q), len(buf)/8)
		for i, v := range q[:k] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*k])
		q = q[k:]
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}
