// Package detect implements the paper's SDC detector (Section V): every
// upper-Hessenberg coefficient the Arnoldi process produces is bounded by
// the norm of the input matrix,
//
//	|h(i,j)| ≤ ‖A‖₂ ≤ ‖A‖F            (Eq. 3)
//
// so any coefficient outside the bound — or non-finite — must be corrupt,
// regardless of how the corruption happened. The check costs one comparison
// per coefficient and no communication, and is invariant of the
// orthogonalization algorithm and of which inner solve is running (the
// bound depends only on the input matrix).
package detect

import (
	"fmt"
	"math"
	"sync"

	"sdcgmres/internal/krylov"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/trace"
)

// BoundKind selects which norm backs the detector bound.
type BoundKind int

const (
	// FrobeniusBound uses ‖A‖F: exact, one pass over the nonzeros, looser.
	FrobeniusBound BoundKind = iota
	// SpectralBound uses a power-method estimate of ‖A‖₂: tighter, costs a
	// few dozen SpMVs at setup. Because the estimate is a lower bound on
	// the true norm, a safety factor is applied so legitimate values never
	// trip the check.
	SpectralBound
)

// String implements fmt.Stringer.
func (b BoundKind) String() string {
	if b == SpectralBound {
		return "‖A‖₂ (power estimate)"
	}
	return "‖A‖F"
}

// Violation is the error reported when a coefficient breaks the invariant.
type Violation struct {
	Ctx   krylov.CoeffContext
	Value float64
	Bound float64
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("detect: |h| = %.6g exceeds Hessenberg bound %.6g at inner solve %d, iteration %d, %s step %d",
		math.Abs(v.Value), v.Bound, v.Ctx.OuterIteration, v.Ctx.InnerIteration, v.Ctx.Kind, v.Ctx.Step)
}

// Stats aggregates detector activity.
type Stats struct {
	// Checked is the number of coefficients examined.
	Checked int
	// Violations is the number of checks that failed.
	Violations int
	// NonFinite counts violations caused by NaN/Inf rather than magnitude.
	NonFinite int
}

// Detector is a krylov.CoeffHook that checks the Hessenberg bound. The
// value always passes through unchanged — detection is separated from
// response, which belongs to the solver policy (DetectRecord/DetectHalt)
// or to the nested solver's restart logic.
type Detector struct {
	bound float64
	kind  BoundKind

	mu         sync.Mutex
	stats      Stats
	violations []Violation
}

// safetyFactor widens the spectral bound to absorb the power method's
// underestimate and rounding in the coefficients themselves.
const safetyFactor = 1.01

// NewDetector builds a detector for the operator. The bound is computed
// once at construction, mirroring the paper's observation that it is
// invariant across all inner solves.
func NewDetector(a *sparse.CSR, kind BoundKind) *Detector {
	var bound float64
	switch kind {
	case SpectralBound:
		bound = a.Norm2Est(300, 1e-8) * safetyFactor
	default:
		bound = a.FrobeniusNorm()
	}
	return &Detector{bound: bound, kind: kind}
}

// NewDetectorWithBound builds a detector with an externally supplied bound
// (e.g., the analytic ‖A‖₂ of the Poisson matrix).
func NewDetectorWithBound(bound float64, kind BoundKind) *Detector {
	if bound <= 0 || math.IsNaN(bound) || math.IsInf(bound, 0) {
		panic(fmt.Sprintf("detect.NewDetectorWithBound: invalid bound %g", bound))
	}
	return &Detector{bound: bound, kind: kind}
}

// Bound returns the active bound value.
func (d *Detector) Bound() float64 { return d.bound }

// Kind returns which norm backs the bound.
func (d *Detector) Kind() BoundKind { return d.kind }

// Observe implements krylov.CoeffHook: it checks |h| ≤ bound (non-finite
// values always fail — NaN defeats plain comparisons, so the check is
// written to catch it) and records but never alters the value.
func (d *Detector) Observe(ctx krylov.CoeffContext, h float64) (float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Checked++
	bad := math.IsNaN(h) || math.IsInf(h, 0)
	if bad {
		d.stats.NonFinite++
	}
	if !bad && math.Abs(h) <= d.bound {
		return h, nil
	}
	d.stats.Violations++
	v := Violation{Ctx: ctx, Value: h, Bound: d.bound}
	d.violations = append(d.violations, v)
	return h, &v
}

// Stats returns a snapshot of the detector counters.
func (d *Detector) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Violations returns a copy of the recorded violations.
func (d *Detector) Violations() []Violation {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Violation, len(d.violations))
	copy(out, d.violations)
	return out
}

// CountPassed adds n checks that passed without running them — for a
// nested solver that served an inner solve from a record whose every
// coefficient provably lies within the bound (see WouldDetect).
func (d *Detector) CountPassed(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Checked += n
}

// Reset clears counters and the violation log.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	d.violations = nil
}

// WouldDetect reports whether a coefficient of the given magnitude would
// trip this detector — the analytical question behind the paper's fault
// classes ("we know precisely what errors we can detect and, more
// importantly, what is not detectable", Section V-C).
func (d *Detector) WouldDetect(h float64) bool {
	return math.IsNaN(h) || math.IsInf(h, 0) || math.Abs(h) > d.bound
}

var _ krylov.CoeffHook = (*Detector)(nil)

// Traced adapts the detector so every check it performs — pass or fail —
// is also emitted as a DetectorVerdict trace event, without changing the
// detector's position in a hook chain or its pass-through semantics. With
// a nil recorder the detector itself is returned unchanged.
func Traced(d *Detector, rec *trace.Recorder) krylov.CoeffHook {
	if rec == nil {
		return d
	}
	return tracedDetector{d: d, rec: rec}
}

type tracedDetector struct {
	d   *Detector
	rec *trace.Recorder
}

// Observe implements krylov.CoeffHook.
func (t tracedDetector) Observe(ctx krylov.CoeffContext, h float64) (float64, error) {
	nh, err := t.d.Observe(ctx, h)
	t.rec.DetectorVerdict(ctx.OuterIteration, ctx.InnerIteration, ctx.AggregateInner, ctx.Step, h, t.d.Bound(), err != nil)
	return nh, err
}
