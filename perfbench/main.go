// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload for a fixed time, checks every output
// against a reference, and prints every metric by name with its unit and
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"units_per_s": {"value": 38.2, "unit": "1/s"}, ...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sweep-poisson --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it runs the workload twice, untraced and then with every
// recorder on, and reports the per-layer metrics, per-layer self time and
// the tracing overhead; the spans go to one JSONL file under
// .bench_build/perfbench/. README.md describes the workloads, the metrics
// and what each should move.
//
// The exit code is 0 only when every operation succeeded and every output
// matched its reference.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, so one slow start does not move it.
const setupRepeats = 3

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// smoke shrinks every workload to tiny-profile sizes and takes its
	// references from the one-shot solver path instead of data/*.csv.
	smoke bool
	root  string
}

// bench is the state shared by a run's workload code.
type bench struct {
	options
	// scratch holds journals, stores and the span file; removed at exit
	// except for the span file.
	scratch string
	// gold is the sweep reference: committed rows, or in smoke mode rows
	// computed by expt.RunPoint during setup.
	gold *golden
	// spans records the traced phase; nil when untraced.
	spans *tracer
}

// phase is the outcome of one timed phase.
type phase struct {
	// units counts operations that completed and matched their reference.
	units     int
	attempted int
	failed    int
	wall      time.Duration
	// lat is each correct operation's latency in milliseconds.
	lat      []float64
	cpu      time.Duration
	allocB   uint64
	problems []string
}

// fail counts one failed operation and keeps its description.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.problems) < 10 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up workload.
type instance interface {
	// run executes the timed phase.
	run(ctx context.Context, b *bench) (*phase, error)
	// layers adds the workload's per-layer metrics after a traced phase.
	layers(ctx context.Context, b *bench, ph *phase, ms metricSet) error
	close()
}

// workload is one named set of inputs; BENCHMARK.json and README.md say
// why each was chosen.
type workload struct {
	name  string
	setup func(ctx context.Context, b *bench, traced bool) (instance, error)
}

var workloads = []workload{
	{"sweep-poisson", setupPoissonSweep},
	{"sweep-circuit-fleet", setupCircuitFleet},
	{"jobs-http", setupJobsHTTP},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code explicit, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	// A stuck run fails instead of hanging: a traced run does its timed
	// phases, set-ups and probes well within this.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration((3*o.seconds+100)*float64(time.Second)))
	defer cancel()
	res, err := execute(ctx, o, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var o options
	var traceFlag int
	fset.StringVar(&o.workload, "workload", "", "workload name")
	fset.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fset.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fset.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	fset.BoolVar(&o.smoke, "smoke", false, "tiny-profile sizes with computed references (for tests)")
	fset.StringVar(&o.root, "root", ".", "repository root: data/*.csv references, .bench_build/ scratch")
	if err := fset.Parse(args); err != nil {
		return o, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return o, fmt.Errorf("bad --trace")
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return o, fmt.Errorf("bad --seconds")
	}
	o.traced = traceFlag == 1
	return o, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and prints its report.
func execute(ctx context.Context, o options, w *workload, stdout io.Writer) (*result, error) {
	b := &bench{options: o}
	b.scratch = filepath.Join(o.root, ".bench_build", "perfbench", fmt.Sprintf("%s-seed%d-pid%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(b.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.scratch)
	b.gold = newGolden()
	if !o.smoke {
		g, err := loadGolden(filepath.Join(o.root, "data"))
		if err != nil {
			return nil, err
		}
		b.gold = g
	}

	stamp := stampOf(o)
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %gs timed, trace %t\n", o.workload, o.seed, o.seconds, o.traced)
	raw, _ := json.Marshal(stamp)
	fmt.Fprintf(stdout, "stamp %s\n", raw)

	var (
		ms   = metricSet{}
		defs []metricDef
		all  []*phase
	)
	if !o.traced {
		defs = endToEnd
		inst, setups, err := setupMedian(ctx, b, w)
		if err != nil {
			return nil, err
		}
		ph, err := measure(ctx, b, inst)
		inst.close()
		if err != nil {
			return nil, err
		}
		all = append(all, ph)
		if err := endToEndMetrics(ph, setups, ms, o.smoke); err != nil {
			return nil, err
		}
	} else {
		// The untraced and traced phases split the run's time.
		defs = perLayer
		b.seconds = o.seconds / 2
		plain, err := w.setup(ctx, b, false)
		if err != nil {
			return nil, err
		}
		base, err := measure(ctx, b, plain)
		plain.close()
		if err != nil {
			return nil, err
		}
		b.spans = newTracer()
		traced, err := w.setup(ctx, b, true)
		if err != nil {
			return nil, err
		}
		ph, err := measure(ctx, b, traced)
		if err == nil {
			err = traced.layers(ctx, b, ph, ms)
		}
		traced.close()
		if err != nil {
			return nil, err
		}
		all = append(all, base, ph)
		ms.set("trace.overhead_frac", 1-ratio(rate(ph), rate(base)), ph.units+base.units)
		b.spans.selfTimes(ph.units, ms)
		ms.set("trace.spans", float64(b.spans.len()), b.spans.len())
		path := filepath.Join(o.root, ".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := b.spans.write(path, stamp); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
		// Layers a workload bypasses did no work: report them as 0.
		for _, d := range perLayer {
			if _, ok := ms[d.name]; !ok {
				ms.set(d.name, 0, 0)
			}
		}
	}
	if err := checkComplete(ms, defs); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, ph := range all {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, p := range ph.problems {
			fmt.Fprintf(stdout, "FAILED %s\n", p)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		m := ms[d.name]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		fmt.Fprintf(stdout, "metric %-34s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
		res.Metrics[d.name] = metricValue{m.value, d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// setupMedian sets the workload up setupRepeats times, keeps the last
// instance and returns every set-up duration in seconds.
func setupMedian(ctx context.Context, b *bench, w *workload) (instance, []float64, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(ctx, b, false); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return inst, setups, nil
}

// measure runs one timed phase and charges it the process CPU time and
// heap allocation it caused.
func measure(ctx context.Context, b *bench, inst instance) (*phase, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	ph, err := inst.run(ctx, b)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ph.allocB = m1.TotalAlloc - m0.TotalAlloc
	return ph, nil
}

func rate(ph *phase) float64 { return ratio(float64(ph.units), ph.wall.Seconds()) }

// endToEndMetrics derives the seven user-visible numbers of an untraced
// phase. Outside smoke mode a percentile with fewer than ten samples
// beyond it is an error, not a number.
func endToEndMetrics(ph *phase, setups []float64, ms metricSet, smoke bool) error {
	n := ph.units
	ms.set("units_per_s", rate(ph), n)
	for _, p := range []struct {
		name string
		q    float64
	}{{"unit_p50_ms", 0.5}, {"unit_p90_ms", 0.9}} {
		v, ok := percentile(ph.lat, p.q)
		if !ok && !smoke {
			return fmt.Errorf("%s: %d samples are too few for a reportable percentile", p.name, len(ph.lat))
		}
		ms.set(p.name, v, len(ph.lat))
	}
	sort.Float64s(setups)
	ms.set("setup_s", setups[len(setups)/2], len(setups))
	ms.set("peak_rss_mb", peakRSSMB(), 1)
	ms.set("alloc_mb_per_unit", ratio(float64(ph.allocB)/(1<<20), float64(n)), n)
	ms.set("cpu_ms_per_unit", ratio(float64(ph.cpu)/float64(time.Millisecond), float64(n)), n)
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stamp identifies the machine, toolchain and source a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the VCS revision the binary was built from ("unknown"
	// outside a git checkout); Source is a digest of the Go sources and
	// reference CSVs, which identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func stampOf(o options) stamp {
	s := stamp{
		Workload:   o.workload,
		Seed:       o.seed,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(o.root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
			if kv.Key == "vcs.modified" && kv.Value == "true" {
				s.Commit += "+modified"
			}
		}
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go, go.mod and .csv file under root, skipping
// dot-directories (build output and VCS metadata).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".csv" && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
