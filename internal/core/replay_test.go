package core

import (
	"math"
	"testing"

	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/trace"
)

// replayFixture is a Poisson problem with its failure-free record.
type replayFixture struct {
	cfg Config
	b   []float64
	rec *Replay
	s   func(cfg Config) *Solver
}

func newReplayFixture(t *testing.T) replayFixture {
	t.Helper()
	a := gallery.Poisson2D(16)
	cfg := Config{MaxOuter: 30, OuterTol: 1e-9, Inner: InnerConfig{Iterations: 10}}
	b := rhsOnes(a)
	res, rec, err := New(a, cfg).SolveRecording(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Len() != res.Stats.OuterIterations || res.Stats.OuterIterations < 4 {
		t.Fatalf("record of %d outer iterations: %v", res.Stats.OuterIterations, rec)
	}
	return replayFixture{cfg: cfg, b: b, rec: rec, s: func(cfg Config) *Solver { return New(a, cfg) }}
}

// lateInjector strikes the last inner iteration of the failure-free run, so
// every earlier inner solve is replayable.
func (f replayFixture) lateInjector() *fault.Injector {
	return fault.NewInjector(fault.ClassSlight, fault.Site{AggregateInner: f.rec.Len() * f.cfg.Inner.Iterations, Step: fault.FirstMGS})
}

// solvePair solves b with and without the record, building each solver
// with mk, and requires bitwise-equal results. It returns the result of
// the solver that had the record attached.
func (f replayFixture) solvePair(t *testing.T, b []float64, mk func() *Solver) *Result {
	t.Helper()
	s := mk()
	s.UseReplay(f.rec)
	got, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mk().Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got, want) {
		t.Fatalf("replay changed the result:\n with    %+v\n without %+v", got.Stats, want.Stats)
	}
	return got
}

func bitwiseEqual(a, b *Result) bool {
	if a.Converged != b.Converged || len(a.X) != len(b.X) || len(a.ResidualHistory) != len(b.ResidualHistory) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	for i := range a.ResidualHistory {
		if math.Float64bits(a.ResidualHistory[i]) != math.Float64bits(b.ResidualHistory[i]) {
			return false
		}
	}
	sa, sb := a.Stats, b.Stats
	sa.ReplayedInner, sb.ReplayedInner = 0, 0
	return sa == sb
}

func TestReplayServesPrefix(t *testing.T) {
	f := newReplayFixture(t)
	cfg := f.cfg
	cfg.Detector = DetectorConfig{Enabled: true, Response: ResponseRestartInner}
	got := f.solvePair(t, f.b, func() *Solver {
		c := cfg
		c.Inner.Hooks = []krylov.CoeffHook{f.lateInjector()}
		return f.s(c)
	})
	if want := f.rec.Len() - 1; got.Stats.ReplayedInner != want {
		t.Fatalf("replayed %d inner solves, want %d (all before the faulted one)", got.Stats.ReplayedInner, want)
	}
	if got.Stats.DetectorChecked == 0 {
		t.Fatal("replayed solves must still count their detector checks")
	}
}

func TestReplayFallbacks(t *testing.T) {
	f := newReplayFixture(t)
	last := f.rec.Len() * f.cfg.Inner.Iterations
	otherB := make([]float64, len(f.b))
	for i := range otherB {
		otherB[i] = float64(i%7) - 3
	}
	minMax := math.Inf(1)
	for _, st := range f.rec.steps {
		minMax = math.Min(minMax, st.maxAbsH)
	}
	cases := []struct {
		name string
		b    []float64
		mk   func() *Solver
	}{
		{"hook without QuietBefore", f.b, func() *Solver {
			c := f.cfg
			// A sticky fault: it strikes on every solve that reaches its
			// site, and cannot say when it is quiet.
			c.Inner.Hooks = []krylov.CoeffHook{krylov.CoeffHookFunc(func(ctx krylov.CoeffContext, h float64) (float64, error) {
				if ctx.AggregateInner == last && ctx.Step == 1 {
					return h * 1e-3, nil
				}
				return h, nil
			})}
			return f.s(c)
		}},
		{"different right-hand side", otherB, func() *Solver {
			c := f.cfg
			c.Inner.Hooks = []krylov.CoeffHook{f.lateInjector()}
			return f.s(c)
		}},
		{"detector bound below the recorded max |h|", f.b, func() *Solver {
			c := f.cfg
			c.Inner.Hooks = []krylov.CoeffHook{f.lateInjector()}
			c.Detector = DetectorConfig{Enabled: true}
			s := f.s(c)
			s.det = detect.NewDetectorWithBound(minMax*0.999, detect.FrobeniusBound)
			return s
		}},
		{"RobustFirstSolve", f.b, func() *Solver {
			c := f.cfg
			c.Inner.Hooks = []krylov.CoeffHook{f.lateInjector()}
			c.Inner.RobustFirstSolve = true
			return f.s(c)
		}},
		{"WrapOperator", f.b, func() *Solver {
			c := f.cfg
			c.Inner.Hooks = []krylov.CoeffHook{f.lateInjector()}
			c.Inner.WrapOperator = func(op krylov.Operator) krylov.Operator { return op }
			return f.s(c)
		}},
		{"different inner iterations", f.b, func() *Solver {
			c := f.cfg
			c.Inner.Iterations = 9
			return f.s(c)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := f.solvePair(t, tc.b, tc.mk); got.Stats.ReplayedInner != 0 {
				t.Fatalf("replayed %d inner solves, want 0", got.Stats.ReplayedInner)
			}
		})
	}
}

func TestReplayRecorderOptsOut(t *testing.T) {
	f := newReplayFixture(t)
	run := func(replay bool) (*Result, int) {
		rec := trace.NewRecorder(1 << 16)
		inj := f.lateInjector()
		inj.SetRecorder(rec)
		c := f.cfg
		c.Inner.Hooks = []krylov.CoeffHook{inj}
		c.Detector = DetectorConfig{Enabled: true}
		c.Recorder = rec
		s := f.s(c)
		if replay {
			s.UseReplay(f.rec)
		}
		res, err := s.Solve(f.b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, len(rec.Events())
	}
	got, gotEvents := run(true)
	want, wantEvents := run(false)
	if got.Stats.ReplayedInner != 0 || !bitwiseEqual(got, want) {
		t.Fatalf("traced solve replayed %d inner solves", got.Stats.ReplayedInner)
	}
	if gotEvents != wantEvents {
		t.Fatalf("trace events %d with record, %d without", gotEvents, wantEvents)
	}
}

func TestSolveRecordingDeclines(t *testing.T) {
	a := gallery.Poisson2D(8)
	for name, cfg := range map[string]Config{
		"hooks":    {Inner: InnerConfig{Hooks: []krylov.CoeffHook{fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 1})}}},
		"detector": {Detector: DetectorConfig{Enabled: true}},
		"fcg":      {Outer: OuterFCG},
	} {
		cfg.MaxOuter, cfg.OuterTol = 20, 1e-8
		if _, rec, err := New(a, cfg).SolveRecording(rhsOnes(a), nil); err != nil || rec != nil {
			t.Fatalf("%s: record %v, error %v; want no record", name, rec, err)
		}
	}
}
