// Package krylov implements the iterative solvers of the study: GMRES with
// restarting, Flexible GMRES (Saad 1993), and Conjugate Gradient, all built
// on an Arnoldi process with pluggable orthogonalization (modified
// Gram-Schmidt, classical Gram-Schmidt, and re-orthogonalized CGS2).
//
// Every projection and normalization coefficient the Arnoldi process
// computes flows through an ordered chain of CoeffHooks. That seam is where
// the fault injectors (internal/fault) corrupt values and where the
// Hessenberg-bound detector (internal/detect) screens them — exactly the
// conditionals the paper inserts between lines 6–7 and 9–10 of Algorithm 1.
package krylov

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/trace"
)

// Operator is a linear operator y = A x. sparse.CSR satisfies it.
type Operator interface {
	Rows() int
	Cols() int
	MatVec(dst, x []float64)
}

// PoolOperator is an Operator whose matrix-vector product can run on a
// kernel pool. sparse.CSR satisfies it via MatVecPool. Operators that do
// not implement it fall back to the sequential MatVec — which is always
// numerically equivalent, since pooled SpMV partitions rows (disjoint
// writes, serial per-row rounding).
type PoolOperator interface {
	Operator
	MatVecPool(p *kernel.Pool, dst, x []float64)
}

// matVec applies a to x on the pool when the operator supports it.
func matVec(p *kernel.Pool, a Operator, dst, x []float64) {
	if po, ok := a.(PoolOperator); ok {
		po.MatVecPool(p, dst, x)
		return
	}
	a.MatVec(dst, x)
}

// Preconditioner applies z ≈ M⁻¹ q. For inner-outer iterations the "apply"
// is itself an iterative solve, and may differ arbitrarily from one call to
// the next — that flexibility is what FGMRES exists to accommodate.
type Preconditioner interface {
	Apply(z, q []float64) error
}

// PrecondFunc adapts a function to the Preconditioner interface.
type PrecondFunc func(z, q []float64) error

// Apply implements Preconditioner.
func (f PrecondFunc) Apply(z, q []float64) error { return f(z, q) }

// IdentityPreconditioner returns q unchanged (no preconditioning).
var IdentityPreconditioner Preconditioner = PrecondFunc(func(z, q []float64) error {
	copy(z, q)
	return nil
})

// CoeffKind distinguishes the two coefficient producers in the Arnoldi loop.
type CoeffKind int

const (
	// Projection is an inner-product coefficient h(i,j) from the
	// orthogonalization loop (Algorithm 1, line 6).
	Projection CoeffKind = iota
	// Normalization is the subdiagonal norm h(j+1,j) (Algorithm 1, line 9).
	Normalization
)

// String implements fmt.Stringer.
func (k CoeffKind) String() string {
	if k == Normalization {
		return "normalization"
	}
	return "projection"
}

// CoeffContext identifies exactly which coefficient of which iteration is
// flowing through a hook, using the paper's coordinates: the inner solve
// index (outer iteration), the Arnoldi iteration within the solve, the
// aggregate inner iteration across all solves (the x-axis of Figures 3 and
// 4), and the step within the orthogonalization loop.
type CoeffContext struct {
	// OuterIteration is the 1-based index of the inner solve within an
	// inner-outer iteration, or 0 for a standalone solve.
	OuterIteration int
	// InnerIteration is the 1-based Arnoldi iteration j.
	InnerIteration int
	// AggregateInner is the 1-based aggregate inner iteration across the
	// whole nested solve: (outer-1)*innerPerOuter + InnerIteration.
	AggregateInner int
	// Step is the 1-based orthogonalization step i for projections, or
	// InnerIteration+1 for the normalization coefficient.
	Step int
	// LastStep is true for the final projection of the loop (i == j) and
	// for the normalization coefficient.
	LastStep bool
	// Kind says whether this is a projection or the subdiagonal norm.
	Kind CoeffKind
}

// CoeffHook observes (and may replace) a coefficient. Returning a non-nil
// error flags the coefficient as unacceptable; the solver's DetectAction
// decides what happens next. Hooks run in the order given, so an injector
// placed before a detector models "SDC happens, then the check runs".
type CoeffHook interface {
	Observe(ctx CoeffContext, h float64) (float64, error)
}

// QuietHook is a CoeffHook that can prove it is inert for a while:
// QuietBefore returns an aggregate inner iteration t such that the hook
// passes every coefficient of aggregate iterations before t through
// unchanged, never errors on them and keeps no state about them. A nested
// solver may then skip calling it for those iterations entirely. Hooks
// without this method are assumed to act on every coefficient.
type QuietHook interface {
	CoeffHook
	QuietBefore() int
}

// CoeffHookFunc adapts a function to CoeffHook.
type CoeffHookFunc func(ctx CoeffContext, h float64) (float64, error)

// Observe implements CoeffHook.
func (f CoeffHookFunc) Observe(ctx CoeffContext, h float64) (float64, error) { return f(ctx, h) }

// OrthoMethod selects the Arnoldi orthogonalization kernel.
type OrthoMethod int

const (
	// MGS is modified Gram-Schmidt — the paper's choice and the default.
	MGS OrthoMethod = iota
	// CGS is classical Gram-Schmidt (one pass). Cheaper in synchronization
	// but numerically weaker.
	CGS
	// CGS2 is classical Gram-Schmidt with full re-orthogonalization
	// ("twice is enough").
	CGS2
)

// String implements fmt.Stringer.
func (m OrthoMethod) String() string {
	switch m {
	case CGS:
		return "CGS"
	case CGS2:
		return "CGS2"
	default:
		return "MGS"
	}
}

// LSQPolicy selects how the projected least-squares problem is solved —
// the three approaches of Section VI-D.
type LSQPolicy int

const (
	// LSQTriangular is approach 1: the plain structured-QR triangular
	// solve. Unboundedly wrong if R is (nearly) singular.
	LSQTriangular LSQPolicy = iota
	// LSQFallback is approach 2: try the triangular solve and switch to
	// the rank-revealing solve only if the result contains Inf or NaN.
	LSQFallback
	// LSQRankRevealing is approach 3: always solve via truncated SVD.
	LSQRankRevealing
)

// String implements fmt.Stringer.
func (p LSQPolicy) String() string {
	switch p {
	case LSQFallback:
		return "fallback"
	case LSQRankRevealing:
		return "rank-revealing"
	default:
		return "triangular"
	}
}

// DetectAction says how a solver responds when a hook reports an error.
type DetectAction int

const (
	// DetectRecord keeps iterating and only records the event.
	DetectRecord DetectAction = iota
	// DetectHalt stops the solve at the current iteration; the best
	// solution so far is returned. For an inner solve this implements
	// "return early with whatever you have", which the sandbox model
	// permits.
	DetectHalt
)

// Options configures GMRES and FGMRES.
type Options struct {
	// MaxIter is the Krylov subspace dimension per cycle (the paper's
	// inner solves use 25).
	MaxIter int
	// MaxRestarts is the number of additional restart cycles for
	// standalone GMRES(m). Zero means a single cycle.
	MaxRestarts int
	// Tol is the relative residual convergence threshold ‖r‖/‖b‖. Zero
	// disables early convergence (run all iterations) except for happy
	// breakdown.
	Tol float64
	// Ortho selects the orthogonalization kernel (default MGS).
	Ortho OrthoMethod
	// Policy selects the projected least-squares solve (default
	// triangular).
	Policy LSQPolicy
	// RRTol is the relative singular-value truncation for the
	// rank-revealing policies (default 1e-12 when zero).
	RRTol float64
	// HappyTol is the happy-breakdown threshold on h(j+1,j) relative to
	// the initial residual norm (default 1e-14 when zero).
	HappyTol float64
	// Hooks observe every Hessenberg coefficient, in order.
	Hooks []CoeffHook
	// OnHookErr selects the response to a hook error (default
	// DetectRecord).
	OnHookErr DetectAction
	// OuterIteration and AggregateBase seed the CoeffContext when this
	// solve is the inner stage of a nested iteration: the j-th Arnoldi
	// iteration reports AggregateInner = AggregateBase + j.
	OuterIteration int
	AggregateBase  int
	// RankCheckTol, when nonzero, enables the FGMRES trichotomy check: if
	// the condition estimate of H(1:j,1:j) exceeds 1/RankCheckTol the
	// solve aborts with ErrRankDeficient.
	RankCheckTol float64
	// Precond, when non-nil, right-preconditions GMRES: the Arnoldi
	// process runs on A·M⁻¹ and the solution update is x += M⁻¹(Q y).
	// Note for detection: the Hessenberg bound then involves the norm of
	// the *preconditioned* matrix (see detect.NewPreconditionedDetector).
	Precond Preconditioner
	// Recorder, when non-nil, receives flight-recorder events: the
	// relative residual after every iteration, and every Hessenberg
	// coefficient as the iteration used it (observed by a tap appended
	// after the caller's Hooks, so the configured injector/detector order
	// is untouched and the recorded value is the post-hook one). A nil
	// Recorder costs one pointer check per emission site and nothing else.
	Recorder *trace.Recorder
	// Pool, when non-nil, runs the solver's hot-path kernels — SpMV (for
	// operators that implement PoolOperator), dot products, norms, and
	// axpy/scale updates — on a persistent shared-memory worker pool. The
	// kernels are bitwise deterministic: results are identical for every
	// worker count, including a nil Pool (sequential), so the pool changes
	// wall-clock time and nothing else.
	Pool *kernel.Pool
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 25
	}
	if o.RRTol == 0 {
		o.RRTol = 1e-12
	}
	if o.HappyTol == 0 {
		o.HappyTol = 1e-14
	}
	if o.Recorder != nil {
		// Append the recorder's coefficient tap to a copy of the chain: the
		// caller's hook order (injectors before detectors) is preserved, and
		// the tap sees the value the iteration actually used.
		hooks := make([]CoeffHook, len(o.Hooks), len(o.Hooks)+1)
		copy(hooks, o.Hooks)
		o.Hooks = append(hooks, coeffTap{o.Recorder})
	}
	return o
}

// coeffTap forwards post-hook coefficients to the flight recorder. It
// never alters the value and never errors.
type coeffTap struct{ rec *trace.Recorder }

// Observe implements CoeffHook.
func (t coeffTap) Observe(ctx CoeffContext, h float64) (float64, error) {
	t.rec.Coeff(ctx.OuterIteration, ctx.InnerIteration, ctx.AggregateInner, ctx.Step,
		ctx.Kind == Normalization, h)
	return h, nil
}

// HookEvent records a hook error: which coefficient, its value, and why.
type HookEvent struct {
	Ctx   CoeffContext
	Value float64
	Err   error
}

// Work estimates the arithmetic a solve performed. The paper's
// performance argument (Sec. VII-E-1) is that orthogonalization work grows
// linearly with the iteration index — so total orthogonalization cost is
// quadratic in the iteration count while SpMV cost is linear, and
// hardening the *early* iterations is nearly free. These counters make
// that argument measurable.
type Work struct {
	// SpMVs counts operator applications (2·nnz flops each).
	SpMVs int
	// OrthoFlops estimates floating-point operations spent in the
	// orthogonalization kernel (dots + axpys against the basis).
	OrthoFlops int64
}

// Add accumulates another work tally.
func (w *Work) Add(o Work) {
	w.SpMVs += o.SpMVs
	w.OrthoFlops += o.OrthoFlops
}

// Result reports a solve.
type Result struct {
	// X is the final iterate.
	X []float64
	// Iterations is the total number of Arnoldi (or CG) iterations.
	Iterations int
	// Converged reports whether the residual criterion was met.
	Converged bool
	// Breakdown reports a happy breakdown (invariant subspace found).
	Breakdown bool
	// Halted reports that a hook error stopped the solve early.
	Halted bool
	// ResidualHistory holds the relative residual after each iteration.
	// For GMRES/FGMRES these are the projected ("free") residual norms;
	// callers needing certainty recompute explicitly.
	ResidualHistory []float64
	// FinalResidual is the last entry of ResidualHistory (1 if empty).
	FinalResidual float64
	// HookEvents collects all hook errors seen during the solve.
	HookEvents []HookEvent
	// FallbackUsed reports that the LSQFallback policy had to switch to
	// the rank-revealing solve.
	FallbackUsed bool
	// Work tallies the arithmetic performed (Sec. VII-E-1 cost model).
	Work Work
}

// ErrRankDeficient is returned by FGMRES when the projected matrix is
// numerically rank deficient — the "clear indication of failure" branch of
// the trichotomy in Section VI-C.
var ErrRankDeficient = fmt.Errorf("krylov: projected matrix numerically rank deficient")

// Sentinel errors classifying solve outcomes. The root facade re-exports
// them, and every internal wrapping preserves errors.Is matching, so
// callers branch on outcomes without string inspection.
var (
	// ErrNotConverged: the solve finished without meeting its tolerance.
	ErrNotConverged = errors.New("krylov: solve did not converge")
	// ErrDetected: a detector (hook error under DetectHalt) stopped the
	// solve — SDC was detected and the solver halted on it.
	ErrDetected = errors.New("krylov: SDC detected")
	// ErrCanceled: the caller's context ended the solve.
	ErrCanceled = errors.New("krylov: solve canceled")
)

// Err classifies a finished solve as an error: nil when converged, a
// wrapped ErrDetected when a hook error halted it, and a wrapped
// ErrNotConverged otherwise. Use errors.Is to branch.
func (r *Result) Err() error {
	switch {
	case r.Halted && !r.Converged:
		return fmt.Errorf("%w: halted after %d iterations (residual %.3e)",
			ErrDetected, r.Iterations, r.FinalResidual)
	case !r.Converged:
		return fmt.Errorf("%w: %d iterations, residual %.3e",
			ErrNotConverged, r.Iterations, r.FinalResidual)
	}
	return nil
}

// canceledErr wraps a context error so both ErrCanceled and the original
// context sentinel match via errors.Is.
func canceledErr(ctxErr error) error {
	return fmt.Errorf("krylov: solve canceled: %w", errors.Join(ErrCanceled, ctxErr))
}

// ctxOK returns nil for a live context and the wrapped cancellation error
// otherwise; solvers call it at iteration boundaries.
func ctxOK(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return canceledErr(err)
	}
	return nil
}

func checkSystem(a Operator, b []float64, x0 []float64) error {
	if a.Rows() != a.Cols() {
		return fmt.Errorf("krylov: operator must be square, got %dx%d", a.Rows(), a.Cols())
	}
	if len(b) != a.Rows() {
		return fmt.Errorf("krylov: b has length %d, operator is %dx%d", len(b), a.Rows(), a.Cols())
	}
	if x0 != nil && len(x0) != a.Rows() {
		return fmt.Errorf("krylov: x0 has length %d, operator is %dx%d", len(x0), a.Rows(), a.Cols())
	}
	return nil
}

// observe runs the hook chain on one coefficient.
func observe(hooks []CoeffHook, ctx CoeffContext, h float64, events *[]HookEvent) (float64, bool) {
	errSeen := false
	for _, hk := range hooks {
		nh, err := hk.Observe(ctx, h)
		if err != nil {
			*events = append(*events, HookEvent{Ctx: ctx, Value: nh, Err: err})
			errSeen = true
		}
		h = nh
	}
	return h, errSeen
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
