package core

import (
	"context"
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
	res, rec, err := New(a, cfg).SolveRecording(context.Background(), b, nil, math.MaxInt)
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

// TestSolveRecordingDeclines pins which solves give which record: a hook
// armed at the first site leaves an empty record, a detector that never
// fires leaves the full one, and configurations that replay cannot serve
// give none.
func TestSolveRecordingDeclines(t *testing.T) {
	a := gallery.Poisson2D(8)
	const none, full = -1, -2 // no record; one step per outer iteration
	for name, tc := range map[string]struct {
		cfg  Config
		want int // record length, none or full
	}{
		"hook at site 1": {Config{Inner: InnerConfig{Hooks: []krylov.CoeffHook{fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 1})}}}, 0},
		"detector":       {Config{Detector: DetectorConfig{Enabled: true, Response: ResponseRestartInner}}, full},
		"fcg":            {Config{Outer: OuterFCG}, none},
		"recorder":       {Config{Recorder: trace.NewRecorder(1 << 12)}, none},
	} {
		cfg := tc.cfg
		cfg.MaxOuter, cfg.OuterTol = 20, 1e-8
		res, rec, err := New(a, cfg).SolveRecording(context.Background(), rhsOnes(a), nil, math.MaxInt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := tc.want
		if want == full {
			want = res.Stats.OuterIterations
		}
		switch {
		case want == none && rec != nil:
			t.Fatalf("%s: record of %d steps, want none", name, rec.Len())
		case want >= 0 && (rec == nil || rec.Len() != want):
			t.Fatalf("%s: record %v, want %d steps", name, rec, want)
		}
	}
	// A detector that flags failure-free coefficients (a bound below the
	// true max |h|) halts the inner solves it fires on, and none of those
	// may join the record, under either response.
	for _, resp := range []Response{ResponseWarn, ResponseRestartInner} {
		s := New(a, Config{MaxOuter: 20, OuterTol: 1e-8, Detector: DetectorConfig{Enabled: true, Response: resp}})
		s.det = detect.NewDetectorWithBound(1e-3, detect.FrobeniusBound)
		res, rec, err := s.SolveRecording(context.Background(), rhsOnes(a), nil, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Detections == 0 || rec.Len() != 0 {
			t.Fatalf("response %v: %d detections, record of %d steps; want detections and no steps", resp, res.Stats.Detections, rec.Len())
		}
	}
}

// TestSolveRecordingLimit: a record stops at its step cap with the
// failure-free record's prefix, the result is unchanged, and a cap below
// one records nothing; an attached record's steps count toward the cap.
func TestSolveRecordingLimit(t *testing.T) {
	f := newReplayFixture(t)
	want, err := f.s(f.cfg).Solve(f.b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 3, f.rec.Len(), f.rec.Len() + 5} {
		for _, attach := range []bool{false, true} {
			s := f.s(f.cfg)
			if attach {
				s.UseReplay(f.rec)
			}
			res, rec, err := s.SolveRecording(context.Background(), f.b, nil, limit)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.ReplayedInner = 0; !bitwiseEqual(res, want) {
				t.Fatalf("limit %d: the cap changed the result", limit)
			}
			switch {
			case limit == 0 && rec != nil:
				t.Fatalf("limit 0: record of %d steps, want none", rec.Len())
			case limit > 0 && (rec.Len() != min(limit, f.rec.Len()) || firstStepDiff(rec, f.rec) >= 0):
				t.Fatalf("limit %d attached %t: record of %d steps, not the failure-free prefix", limit, attach, rec.Len())
			}
		}
	}
}

// TestRecordingFaultedIsFailureFreePrefix checks the recording conditions
// against the fault model: a record made during any single-fault run —
// every class, first or last MGS step, every other site, with the detector
// off or restarting — is bit for bit the failure-free record's prefix up
// to the faulted inner solve. Attached to a failure-free solve, each such
// record is extended back to the full one.
func TestRecordingFaultedIsFailureFreePrefix(t *testing.T) {
	a := gallery.Poisson2D(32)
	b := rhsOnes(a)
	cfg := Config{MaxOuter: 60, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 25}}
	_, ff, err := New(a, cfg).SolveRecording(context.Background(), b, nil, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	last := ff.Len() * cfg.Inner.Iterations
	stride := 2
	if raceEnabled || testing.Short() {
		stride = 37 // about fortyfold slower kernels under -race
	}
	runs := 0
	for _, class := range []fault.Model{fault.ClassLarge, fault.ClassSlight, fault.ClassTiny} {
		for _, step := range []fault.StepSelector{fault.FirstMGS, fault.LastMGS} {
			for site := 1; site <= last; site += stride {
				for _, det := range []DetectorConfig{{}, {Enabled: true, Response: ResponseRestartInner}} {
					c := cfg
					inj := fault.NewInjector(class, fault.Site{AggregateInner: site, Step: step})
					c.Inner.Hooks = []krylov.CoeffHook{inj}
					c.Detector = det
					_, rec, err := New(a, c).SolveRecording(context.Background(), b, nil, math.MaxInt)
					if err != nil {
						t.Fatal(err)
					}
					if !inj.Fired() {
						t.Fatalf("site %d: fault did not fire", site)
					}
					if want := (site - 1) / cfg.Inner.Iterations; rec.Len() != want {
						t.Fatalf("%v %v site %d detector %v: record of %d steps, want %d", class, step, site, det.Enabled, rec.Len(), want)
					}
					if i := firstStepDiff(rec, ff); i >= 0 {
						t.Fatalf("%v %v site %d detector %v: step %d differs from the failure-free record", class, step, site, det.Enabled, i+1)
					}
					s := New(a, c)
					s.UseReplay(rec)
					s.cfg.Inner.Hooks = nil // the same solver, failure-free
					res, full, err := s.SolveRecording(context.Background(), b, nil, math.MaxInt)
					if err != nil {
						t.Fatal(err)
					}
					if res.Stats.ReplayedInner != rec.Len() || full.Len() != ff.Len() || firstStepDiff(full, ff) >= 0 {
						t.Fatalf("site %d: extended record of %d steps (%d replayed), want the failure-free %d", site, full.Len(), res.Stats.ReplayedInner, ff.Len())
					}
					runs++
				}
			}
		}
	}
	t.Logf("%d faulted runs on Poisson 32² (%d failure-free steps)", runs, ff.Len())
}

// firstStepDiff returns the index of the first step of rec that differs
// from ref's in any recorded bit, or -1 when rec is a prefix of ref.
func firstStepDiff(rec, ref *Replay) int {
	for i, st := range rec.steps {
		if i >= len(ref.steps) {
			return i
		}
		w := ref.steps[i]
		if st.digest != w.digest || st.iters != w.iters || st.work != w.work || st.coeffs != w.coeffs ||
			math.Float64bits(st.maxAbsH) != math.Float64bits(w.maxAbsH) || len(st.z) != len(w.z) {
			return i
		}
		for k := range st.z {
			if math.Float64bits(st.z[k]) != math.Float64bits(w.z[k]) {
				return i
			}
		}
	}
	return -1
}
