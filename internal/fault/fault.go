// Package fault implements the silent-data-corruption model of the paper:
// a *single transient* corruption of one numerical value, independent of the
// physical mechanism that caused it. Injectors implement krylov.CoeffHook
// and replace exactly one Hessenberg coefficient at a precisely addressed
// site — the aggregate inner iteration and Modified Gram-Schmidt step of
// Section VII-B — then disarm.
//
// Fault values follow Section VII-B1: corruption is expressed relative to
// the correct value (×10¹⁵⁰, ×10⁻⁰·⁵, ×10⁻³⁰⁰), plus bit-flip and set-value
// models for the generalization arguments of Section III-A2.
package fault

import (
	"fmt"
	"math"
	"sync"

	"sdcgmres/internal/krylov"
	"sdcgmres/internal/trace"
)

// Model produces the corrupted value from the correct one.
type Model interface {
	Corrupt(correct float64) float64
	String() string
}

// Scale multiplies the correct value by Factor — the paper's three fault
// classes are Scale{1e150}, Scale{10^-0.5} and Scale{1e-300}.
type Scale struct {
	Factor float64
}

// Corrupt implements Model.
func (s Scale) Corrupt(v float64) float64 { return v * s.Factor }

// String implements fmt.Stringer.
func (s Scale) String() string { return fmt.Sprintf("scale(×%.3g)", s.Factor) }

// Paper fault classes (Section VII-B1).
var (
	// ClassLarge is class 1: h̃ = h × 10¹⁵⁰ — detectable by the bound.
	ClassLarge = Scale{Factor: 1e150}
	// ClassSlight is class 2: h̃ = h × 10⁻⁰·⁵ — undetectable.
	ClassSlight = Scale{Factor: math.Pow(10, -0.5)}
	// ClassTiny is class 3: h̃ = h × 10⁻³⁰⁰ — undetectable (near zero).
	ClassTiny = Scale{Factor: 1e-300}
)

// Classes lists the paper's three fault classes in figure order.
func Classes() []Model { return []Model{ClassLarge, ClassSlight, ClassTiny} }

// SetValue replaces the correct value outright — the "c = a + b = 10" model
// of Section I-A.
type SetValue struct {
	Value float64
}

// Corrupt implements Model.
func (s SetValue) Corrupt(float64) float64 { return s.Value }

// String implements fmt.Stringer.
func (s SetValue) String() string { return fmt.Sprintf("set(%g)", s.Value) }

// BitFlip flips one bit of the IEEE-754 binary64 representation
// (bit 0 = least-significant mantissa bit, bit 63 = sign).
type BitFlip struct {
	Bit uint
}

// Corrupt implements Model.
func (b BitFlip) Corrupt(v float64) float64 {
	if b.Bit > 63 {
		panic(fmt.Sprintf("fault.BitFlip: bit %d out of range", b.Bit))
	}
	return math.Float64frombits(math.Float64bits(v) ^ (1 << b.Bit))
}

// String implements fmt.Stringer.
func (b BitFlip) String() string { return fmt.Sprintf("bitflip(%d)", b.Bit) }

// StepSelector addresses the orthogonalization step within an Arnoldi
// iteration.
type StepSelector int

const (
	// FirstMGS targets h(1,j) — the first projection of the loop. Faulting
	// here taints every later MGS step of the iteration (Section VII-B).
	FirstMGS StepSelector = iota
	// LastMGS targets h(j,j) — the final projection of the loop.
	LastMGS
	// NormStep targets the normalization coefficient h(j+1,j).
	NormStep
)

// String implements fmt.Stringer.
func (s StepSelector) String() string {
	switch s {
	case LastMGS:
		return "last-MGS"
	case NormStep:
		return "normalization"
	default:
		return "first-MGS"
	}
}

// Site addresses one coefficient in the nested iteration using the paper's
// coordinates.
type Site struct {
	// AggregateInner is the 1-based aggregate inner iteration
	// ((outer−1)·innerPerOuter + inner) at which to strike.
	AggregateInner int
	// Step selects the position within the orthogonalization loop.
	Step StepSelector
}

func (s Site) matches(ctx krylov.CoeffContext) bool {
	if ctx.AggregateInner != s.AggregateInner {
		return false
	}
	switch s.Step {
	case FirstMGS:
		return ctx.Kind == krylov.Projection && ctx.Step == 1
	case LastMGS:
		return ctx.Kind == krylov.Projection && ctx.LastStep
	case NormStep:
		return ctx.Kind == krylov.Normalization
	}
	return false
}

// String implements fmt.Stringer.
func (s Site) String() string {
	return fmt.Sprintf("t=%d/%s", s.AggregateInner, s.Step)
}

// Event records a fired injection.
type Event struct {
	Ctx       krylov.CoeffContext
	Correct   float64
	Corrupted float64
	Model     string
}

// Injector is a one-shot SDC injector implementing krylov.CoeffHook. It is
// safe for reuse across sequential solves after Reset, and safe for
// concurrent hook invocations (the one-shot arm is mutex-guarded).
type Injector struct {
	model Model
	site  Site

	mu     sync.Mutex
	fired  bool
	events []Event
	rec    *trace.Recorder
}

// NewInjector arms a single-shot injector for the given site and model.
func NewInjector(model Model, site Site) *Injector {
	if model == nil {
		panic("fault.NewInjector: nil model")
	}
	return &Injector{model: model, site: site}
}

// Observe implements krylov.CoeffHook: it corrupts the addressed
// coefficient exactly once and passes everything else through untouched. It
// never returns an error — SDC is silent by definition.
func (in *Injector) Observe(ctx krylov.CoeffContext, h float64) (float64, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fired || !in.site.matches(ctx) {
		return h, nil
	}
	in.fired = true
	bad := in.model.Corrupt(h)
	in.events = append(in.events, Event{Ctx: ctx, Correct: h, Corrupted: bad, Model: in.model.String()})
	in.rec.FaultInjected(ctx.OuterIteration, ctx.InnerIteration, ctx.AggregateInner, ctx.Step, h, bad, in.model.String())
	return bad, nil
}

// SetRecorder attaches a flight recorder: each strike is then also emitted
// as a FaultInjected trace event. A nil recorder detaches.
func (in *Injector) SetRecorder(rec *trace.Recorder) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rec = rec
}

// Fired reports whether the injector has struck.
func (in *Injector) Fired() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Events returns a copy of the injection log.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// Reset re-arms the injector and clears its log.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fired = false
	in.events = nil
}

// QuietBefore implements krylov.QuietHook: an armed injector touches
// nothing before its site's aggregate inner iteration, and a fired one
// touches nothing ever again.
func (in *Injector) QuietBefore() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fired {
		return math.MaxInt
	}
	return in.site.AggregateInner
}

// Site returns the injector's target site.
func (in *Injector) Site() Site { return in.site }

// Model returns the injector's fault model.
func (in *Injector) Model() Model { return in.model }

var _ krylov.QuietHook = (*Injector)(nil)
