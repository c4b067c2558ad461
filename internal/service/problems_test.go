package service

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sdcgmres/internal/core"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/trace"
)

// faultedPoisson is an FT-GMRES job on Poisson n² with one fault.
func faultedPoisson(n, at int, class, step, response string) JobSpec {
	return JobSpec{
		Matrix: MatrixSpec{Kind: "poisson", N: n},
		Solver: SolverSpec{Detector: response != "", Response: response},
		Fault:  &FaultSpec{Class: class, At: at, Step: step},
	}
}

func runToDone(t *testing.T, e *Engine, spec JobSpec) JobView {
	t.Helper()
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, e, v.ID, time.Minute)
	if v.State != StateDone {
		t.Fatalf("job %s: state %s: %s", v.ID, v.State, v.Error)
	}
	return v
}

// TestProblemCacheReplayCounter: the second job on a problem caches it
// and publishes its failure-free prefix, and a third faulted job on the
// same problem replays it, which the replay and cache counters show on
// /metrics.
func TestProblemCacheReplayCounter(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	e.Start()
	defer e.Shutdown(context.Background())
	m := e.Metrics()

	runToDone(t, e, faultedPoisson(16, 90, "tiny", "first", "restart")) // seen once: not cached
	runToDone(t, e, faultedPoisson(16, 60, "large", "first", "restart"))
	if got := m.InnerReplayed.Value(); got != 0 {
		t.Fatalf("first two jobs replayed %d inner solves, want 0", got)
	}
	runToDone(t, e, faultedPoisson(16, 70, "slight", "last", "restart"))
	snap := m.Snapshot()
	// Site 60 lies in inner solve 3 of 25 iterations, so the second job
	// recorded solves 1–2, and the third (site 70, solve 3) replays both.
	if snap["inner_replayed"] != 2 || snap["problem_cache_hits"] != 1 || snap["problem_cache_misses"] != 2 {
		t.Fatalf("counters after three jobs: %v", snap)
	}
	var sb strings.Builder
	m.WritePrometheus(&sb)
	for _, want := range []string{
		"solved_inner_replayed_total 2",
		"solved_problem_cache_hits_total 1",
		"solved_problem_cache_misses_total 2",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	if errs := obs.LintPrometheusString(sb.String()); len(errs) > 0 {
		t.Fatalf("lint: %v", errs)
	}
}

// TestProblemCacheByteIdentical runs shuffled faulted jobs through a
// two-worker engine with the problem cache and requires each job's record
// to be byte-for-byte the one an uncached RunSpec produces (elapsed time
// aside), while replay actually happened.
func TestProblemCacheByteIdentical(t *testing.T) {
	var specs []JobSpec
	for _, resp := range []string{"", "restart", "halt"} {
		for _, class := range []string{"large", "slight", "tiny"} {
			for _, step := range []string{"first", "last"} {
				for _, at := range []int{4, 37, 63, 110} {
					specs = append(specs, faultedPoisson(32, at, class, step, resp))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	specs = specs[:60]
	for _, at := range []int{30, 45, 60} { // the third replays the second's record
		circuit := CircuitJob(300)
		circuit.Fault = &FaultSpec{Class: "slight", At: at}
		specs = append(specs, circuit)
	}

	e := NewEngine(Config{Workers: 2})
	e.Start()
	defer e.Shutdown(context.Background())
	ids := make([]string, len(specs))
	for i, spec := range specs {
		v, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	for i, spec := range specs {
		v := waitTerminal(t, e, ids[i], 5*time.Minute)
		if v.State != StateDone {
			t.Fatalf("job %d: state %s: %s", i, v.State, v.Error)
		}
		want, err := RunSpec(context.Background(), &spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := recordJSON(t, v.Result), recordJSON(t, want); got != want {
			t.Fatalf("job %d (%s): cached record\n%s\nuncached\n%s", i, SpecDigest(&spec), got, want)
		}
	}
	if e.Metrics().InnerReplayed.Value() == 0 {
		t.Fatal("no inner solve was replayed")
	}
}

func recordJSON(t *testing.T, rec *SolveRecord) string {
	t.Helper()
	r := *rec
	r.ElapsedMS = 0
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// admit makes c cache a matrix spec's problem, as a second job on it
// does.
func admit(t *testing.T, c *problemCache, m MatrixSpec) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if _, err := c.get(m); err != nil {
			t.Fatal(err)
		}
	}
	if c.lookup(matrixKey(m)) == nil {
		t.Fatal("a problem seen twice was not cached")
	}
}

// storedRecord returns the length of the record cached for a spec's
// problem under the service's default inner configuration.
func storedRecord(e *Engine, spec JobSpec) int {
	p := e.problems.lookup(matrixKey(spec.Matrix))
	if p == nil {
		return 0
	}
	cfg, _ := coreConfig(&spec, p.a, nil)
	rec, _ := e.problems.recording(p, core.New(p.a, cfg).ReplayKey())
	return rec.Len()
}

// TestProblemCacheFailedJobsPublishNothing: on a cached problem, a runner
// that panics after its solve, and a job canceled after its solve finished
// but before the engine took the result, leave no record behind and count
// no replay.
func TestProblemCacheFailedJobsPublishNothing(t *testing.T) {
	spec := PoissonJob(16) // failure-free: it would record every inner solve
	t.Run("panic", func(t *testing.T) {
		e := NewEngine(Config{Workers: 1})
		admit(t, e.problems, spec.Matrix)
		run := e.runner
		e.runner = func(ctx context.Context, spec *JobSpec, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, func(), error) {
			if _, _, err := run(ctx, spec, tr, pool); err != nil {
				return nil, nil, err
			}
			panic("runner panics after its solve")
		}
		e.Start()
		defer e.Shutdown(context.Background())
		v, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if v = waitTerminal(t, e, v.ID, time.Minute); v.State != StateFailed {
			t.Fatalf("state %s, want failed", v.State)
		}
		if n := storedRecord(e, spec); n != 0 {
			t.Fatalf("panicking job published a record of %d steps", n)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		e := NewEngine(Config{Workers: 1})
		admit(t, e.problems, spec.Matrix)
		run := e.runner
		solved := make(chan struct{})
		e.runner = func(ctx context.Context, spec *JobSpec, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, func(), error) {
			rec, commit, err := run(ctx, spec, tr, pool)
			close(solved)
			<-ctx.Done()
			return rec, commit, err
		}
		e.Start()
		defer e.Shutdown(context.Background())
		v, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-solved
		if _, err := e.Cancel(v.ID); err != nil {
			t.Fatal(err)
		}
		if v = waitTerminal(t, e, v.ID, time.Minute); v.State != StateCanceled {
			t.Fatalf("state %s, want canceled", v.State)
		}
		if n := storedRecord(e, spec); n != 0 {
			t.Fatalf("canceled job published a record of %d steps", n)
		}
	})
	// Control: the same job left alone publishes its whole run.
	e := NewEngine(Config{Workers: 1})
	admit(t, e.problems, spec.Matrix)
	e.Start()
	defer e.Shutdown(context.Background())
	v := runToDone(t, e, spec)
	if n := storedRecord(e, spec); n == 0 || n != v.Result.OuterIterations {
		t.Fatalf("successful job published %d steps, ran %d outer iterations", n, v.Result.OuterIterations)
	}
}

// TestProblemCacheBudget checks admission and the byte budget: a problem
// is cached on its second miss, least recently used problems go first, a
// record that would not fit is dropped, a problem larger than the budget
// is built per job, and a failed build caches nothing.
func TestProblemCacheBudget(t *testing.T) {
	size := func(n int) int64 {
		p, err := buildProblem(MatrixSpec{Kind: "poisson", N: n})
		if err != nil {
			t.Fatal(err)
		}
		return p.bytes
	}
	m := NewMetrics()
	c := newProblemCache(m, size(8)+size(7)+size(6)/2)
	get := func(n int) *problem {
		t.Helper()
		p, err := c.get(MatrixSpec{Kind: "poisson", N: n})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cached := func(n int) bool { return c.lookup(matrixKey(MatrixSpec{Kind: "poisson", N: n})) != nil }

	if get(8); cached(8) {
		t.Fatal("a problem seen once must not be cached")
	}
	a := get(8)
	if !cached(8) || get(8) != a {
		t.Fatal("a second miss must cache the problem, and a hit return it")
	}
	get(7)
	get(7)
	get(8) // 8² is now the most recently used
	get(6)
	get(6) // evicts 7², the least recently used
	if !cached(8) || cached(7) || !cached(6) {
		t.Fatalf("after LRU eviction: 8² %t 7² %t 6² %t", cached(8), cached(7), cached(6))
	}
	if c.used > c.budget {
		t.Fatalf("used %d of %d bytes", c.used, c.budget)
	}

	// A record that fits is kept; a longer one that would push 8² alone
	// past the budget is dropped.
	record := func(tol float64) (*core.Replay, core.ReplayKey) {
		t.Helper()
		s := core.New(a.a, core.Config{MaxOuter: 40, OuterTol: tol, Inner: core.InnerConfig{Iterations: 5}})
		_, rec, err := s.SolveRecording(context.Background(), a.b, nil, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		return rec, s.ReplayKey()
	}
	short, k := record(1e-6)
	c.commit(a, k, short, 0)
	if rec, _ := c.recording(a, k); rec != short || c.used > c.budget {
		t.Fatalf("a record of %d steps that fits was not kept (used %d of %d bytes)", short.Len(), c.used, c.budget)
	}
	long, _ := record(1e-300)
	if int64(long.Len()*8*len(a.b))+a.bytes-int64(short.Len()*8*len(a.b)) <= c.budget {
		t.Fatalf("record of %d steps fits; the test needs one that does not", long.Len())
	}
	c.commit(a, k, long, 0)
	if rec, _ := c.recording(a, k); rec != short {
		t.Fatal("a record over the budget replaced the stored one")
	}
	// A job records no more than the budget leaves room for, and a record
	// of exactly that length is kept.
	_, limit := c.recording(a, k)
	if limit < short.Len() || limit >= long.Len() {
		t.Fatalf("step cap %d, want between %d and %d", limit, short.Len(), long.Len()-1)
	}
	s := core.New(a.a, core.Config{MaxOuter: 40, OuterTol: 1e-300, Inner: core.InnerConfig{Iterations: 5}})
	s.UseReplay(short)
	_, capped, err := s.SolveRecording(context.Background(), a.b, nil, limit)
	if err != nil {
		t.Fatal(err)
	}
	c.commit(a, k, capped, 0)
	if rec, _ := c.recording(a, k); rec != capped || capped.Len() != limit || c.used > c.budget {
		t.Fatalf("a record of the cap's %d steps was not kept (used %d of %d bytes)", limit, c.used, c.budget)
	}
	if _, rest := c.recording(a, k); rest != limit {
		t.Fatalf("a full budget leaves a cap of %d steps, want the stored %d", rest, limit)
	}

	before := m.ProblemCacheMisses.Value()
	get(40)
	big := get(40)
	if cached(40) || big == nil {
		t.Fatal("a problem over the budget must be built but not cached")
	}
	if _, limit := c.recording(big, k); limit != 0 {
		t.Fatalf("a problem over the budget allows a record of %d steps", limit)
	}
	get(40)
	if got := m.ProblemCacheMisses.Value() - before; got != 3 {
		t.Fatalf("oversized problem: %d misses for three jobs, want 3", got)
	}

	bad := MatrixSpec{Kind: "mm", MM: "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 4.0\n"}
	for i := 0; i < 2; i++ {
		if _, err := c.get(bad); err == nil {
			t.Fatal("a non-square payload must fail to build")
		}
		if c.lookup(matrixKey(bad)) != nil {
			t.Fatal("a failed build left an entry")
		}
	}
}

// TestProblemCacheUncachedJobCopiesNothing: a job whose problem the cache
// does not hold — seen for the first time, or over the budget — copies no
// inner result, so it allocates about what the same job allocates without
// a cache; with room for two steps it records two.
func TestProblemCacheUncachedJobCopiesNothing(t *testing.T) {
	spec := faultedPoisson(32, 140, "large", "first", "") // five failure-free steps first
	p, err := buildProblem(spec.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(cache func() *problemCache) uint64 {
		t.Helper()
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			pc := cache()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, _, err := runSpec(context.Background(), &spec, nil, nil, pc); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	uncached := alloc(func() *problemCache { return nil })
	for name, cache := range map[string]func() *problemCache{
		"first sight": func() *problemCache { return newProblemCache(NewMetrics(), problemCacheBytes) },
		"over budget": func() *problemCache {
			c := newProblemCache(NewMetrics(), p.bytes-1)
			c.get(spec.Matrix) // seen once: the job's miss is the second
			return c
		},
	} {
		if got := alloc(cache); got > uncached+uint64(p.stepBytes()) {
			t.Fatalf("%s: the job allocated %d bytes, %d without a cache", name, got, uncached)
		}
	}

	c := newProblemCache(NewMetrics(), p.bytes+2*p.stepBytes())
	c.get(spec.Matrix)
	_, commit, err := runSpec(context.Background(), &spec, nil, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	commit()
	cached := c.lookup(matrixKey(spec.Matrix))
	cfg, _ := coreConfig(&spec, cached.a, nil)
	if rec, _ := c.recording(cached, core.New(cached.a, cfg).ReplayKey()); rec.Len() != 2 {
		t.Fatalf("room for two steps kept a record of %d", rec.Len())
	}
}

// TestProblemCacheSeenBound: the keys of problems seen once are bounded;
// the set starts afresh when full.
func TestProblemCacheSeenBound(t *testing.T) {
	c := newProblemCache(NewMetrics(), problemCacheBytes)
	for i := 0; i < problemSeenKeys; i++ {
		c.seen[strconv.Itoa(i)] = true
	}
	if _, err := c.get(MatrixSpec{Kind: "poisson", N: 4}); err != nil {
		t.Fatal(err)
	}
	if len(c.seen) != 1 {
		t.Fatalf("%d keys seen once after the set was full, want 1", len(c.seen))
	}
}

// TestProblemCachePanickingBuild: a build that panics leaves no entry, so
// the next job on the same spec builds again.
func TestProblemCachePanickingBuild(t *testing.T) {
	c := newProblemCache(NewMetrics(), problemCacheBytes)
	spec := MatrixSpec{Kind: "poisson", N: -3} // invalid size: the generator panics
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the build did not panic")
				}
			}()
			c.get(spec)
		}()
		if c.lookup(matrixKey(spec)) != nil {
			t.Fatal("a panicking build left an entry")
		}
	}
}

// TestProblemCacheConcurrentBuild: jobs that build the same problem seen
// once before at once end up sharing one matrix, so records apply to all
// of them.
func TestProblemCacheConcurrentBuild(t *testing.T) {
	c := newProblemCache(NewMetrics(), problemCacheBytes)
	c.get(MatrixSpec{Kind: "poisson", N: 24})
	got := make([]*problem, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.get(MatrixSpec{Kind: "poisson", N: 24})
			if err != nil {
				panic(err)
			}
			got[i] = p
		}()
	}
	wg.Wait()
	cached := c.lookup(matrixKey(MatrixSpec{Kind: "poisson", N: 24}))
	for i, p := range got {
		if p.a != cached.a {
			t.Fatalf("job %d got its own matrix", i)
		}
	}
}
