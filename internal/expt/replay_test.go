package expt

import (
	"context"
	"math"
	"testing"

	"sdcgmres/internal/core"
	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
)

// sameResult reports whether two nested-solve results are bitwise equal:
// iterate, residual history, convergence and every statistic except
// ReplayedInner.
func sameResult(a, b *core.Result) bool {
	if a.Converged != b.Converged || len(a.X) != len(b.X) || len(a.ResidualHistory) != len(b.ResidualHistory) ||
		math.Float64bits(a.FinalResidual) != math.Float64bits(b.FinalResidual) {
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

// checkReplayEquivalence runs every strided site × MGS position × fault
// model × detector policy on p with and without its failure-free record
// and requires identical results and injector verdicts. It returns the
// number of inner solves replayed, so callers can check the test is not
// vacuous.
func checkReplayEquivalence(t *testing.T, p *Problem, stride int) int {
	t.Helper()
	if p.replay == nil || p.replay.Len() != p.FailureFreeOuter {
		t.Fatalf("%s: calibration recorded %v, want %d inner solves", p.Name, p.replay, p.FailureFreeOuter)
	}
	bare := *p
	bare.replay = nil
	models := []fault.Model{fault.ClassLarge, fault.ClassSlight, fault.ClassTiny, fault.BitFlip{Bit: 62}}
	steps := []fault.StepSelector{fault.FirstMGS, fault.LastMGS, fault.NormStep}
	dets := []core.DetectorConfig{
		{},
		{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseRestartInner},
		{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseHaltInner},
	}
	ctx := context.Background()
	replayed, runs := 0, 0
	for site := 1; site <= p.FailureFreeOuter*p.InnerIters; site += stride {
		for _, step := range steps {
			for _, m := range models {
				for _, det := range dets {
					s := fault.Site{AggregateInner: site, Step: step}
					got, gotFired, gotErr := p.solveFaulted(ctx, m, s, det, nil)
					want, wantFired, wantErr := bare.solveFaulted(ctx, m, s, det, nil)
					runs++
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s %v %v %+v: error %v with record, %v without", p.Name, s, m, det, gotErr, wantErr)
					}
					if gotErr != nil {
						continue
					}
					if want.Stats.ReplayedInner != 0 {
						t.Fatalf("%s: replayed %d inner solves without a record", p.Name, want.Stats.ReplayedInner)
					}
					if !sameResult(got, want) || gotFired != wantFired {
						t.Fatalf("%s %v %v %+v: replayed result differs:\n with    %+v fired=%v\n without %+v fired=%v",
							p.Name, s, m, det, got.Stats, gotFired, want.Stats, wantFired)
					}
					replayed += got.Stats.ReplayedInner
				}
			}
		}
	}
	t.Logf("%s: %d runs bitwise identical, %d inner solves replayed", p.Name, runs, replayed)
	return replayed
}

func TestReplayEquivalencePoisson(t *testing.T) {
	p, err := PoissonProblem(32, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	stride := 3
	if testing.Short() || raceEnabled {
		stride = 88
	}
	if checkReplayEquivalence(t, p, stride) == 0 {
		t.Fatal("no inner solve was replayed")
	}
}

func TestReplayEquivalenceCircuit(t *testing.T) {
	p, err := CircuitProblem(1000, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	stride := 3
	if testing.Short() || raceEnabled {
		stride = 88
	}
	if checkReplayEquivalence(t, p, stride) == 0 {
		t.Fatal("no inner solve was replayed")
	}
}
