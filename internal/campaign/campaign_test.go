package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdcgmres/internal/expt"
)

// testManifest is a minute-scale campaign over the package's calibration
// fixture: Poisson 8×8, 6 inner iterations, 5 failure-free outers → 30
// sites, strided to 10 units per series.
func testManifest() Manifest {
	return Manifest{
		Name:     "test-sweep",
		Problems: []ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
		Models:   []string{"slight"},
		Steps:    []string{"first"},
		Stride:   3,
	}
}

// compileTest caches the calibrated compile across tests in this package.
var compiledCache *Compiled

func compileTest(t *testing.T) *Compiled {
	t.Helper()
	if compiledCache != nil {
		return compiledCache
	}
	c, err := Compile(testManifest())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	compiledCache = c
	return c
}

func TestManifestValidate(t *testing.T) {
	good := testManifest()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	bad := []Manifest{
		{},
		{Name: "x"},
		{Name: "x", Problems: []ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}}},
		{Name: "x", Problems: []ProblemSpec{{Kind: "nope", N: 8, InnerIters: 6, TargetOuter: 5}},
			Models: []string{"large"}, Steps: []string{"first"}},
		{Name: "x", Problems: []ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
			Models: []string{"huge"}, Steps: []string{"first"}},
		{Name: "x", Problems: []ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
			Models: []string{"large"}, Steps: []string{"middle"}},
		{Name: "x", Problems: []ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
			Models: []string{"large", "large"}, Steps: []string{"first"}},
		{Name: "x", Problems: []ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
			Models: []string{"large"}, Steps: []string{"first"},
			Detectors: []DetectorSpec{{Enabled: true, Bound: "nope"}}},
		{Name: "x", Problems: []ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
			Models: []string{"large"}, Steps: []string{"first"},
			Detectors: []DetectorSpec{{Enabled: true, Response: "nope"}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("bad manifest %d accepted: %+v", i, m)
		}
	}
}

func TestManifestHashStable(t *testing.T) {
	a, b := testManifest(), testManifest()
	if a.Hash() != b.Hash() {
		t.Fatal("identical manifests must hash identically")
	}
	b.Stride = 5
	if a.Hash() == b.Hash() {
		t.Fatal("different manifests must hash differently")
	}
	// Defaulting is part of the hash: an explicit disabled detector equals
	// the implicit one.
	c := testManifest()
	c.Detectors = []DetectorSpec{{}}
	d := testManifest()
	d.Stride = 3 // unchanged; Detectors empty → defaulted
	if c.Hash() != d.Hash() {
		t.Fatal("defaulted manifests must hash like their explicit forms")
	}
}

func TestCompileDeterministicIDs(t *testing.T) {
	c := compileTest(t)
	// 30 sites, stride 3 → sites 1,4,...,28 → 10 units.
	if len(c.Units) != 10 {
		t.Fatalf("units = %d, want 10", len(c.Units))
	}
	c2, err := CompileWith(c.Manifest, c.Problems)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Units {
		if c.Units[i] != c2.Units[i] {
			t.Fatalf("unit %d differs across compiles: %+v vs %+v", i, c.Units[i], c2.Units[i])
		}
		if len(c.Units[i].ID) != 16 {
			t.Fatalf("unit ID %q not 16 hex chars", c.Units[i].ID)
		}
	}
	// Content identity: a different site or model must change the ID.
	if unitID("p", "large", "first", "off", 1) == unitID("p", "large", "first", "off", 2) {
		t.Fatal("site must be part of the unit ID")
	}
	if unitID("p", "large", "first", "off", 1) == unitID("p", "slight", "first", "off", 1) {
		t.Fatal("model must be part of the unit ID")
	}
	ids := map[string]bool{}
	for _, u := range c.Units {
		if ids[u.ID] {
			t.Fatalf("duplicate unit ID %s", u.ID)
		}
		ids[u.ID] = true
	}
}

func TestCompileWithRejectsMismatchedCalibration(t *testing.T) {
	c := compileTest(t)
	m := testManifest()
	m.Problems[0].TargetOuter = 4 // calibrated fixture has 5
	if _, err := CompileWith(m, c.Problems); err == nil {
		t.Fatal("mismatched calibration must be rejected")
	}
	if _, err := CompileWith(testManifest(), nil); err == nil {
		t.Fatal("missing calibrated problem must be rejected")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, have, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(have) != 0 {
		t.Fatalf("fresh journal has %d records", len(have))
	}
	recs := []Record{
		{ID: "aaaa", Unit: Unit{ID: "aaaa", Site: 1}, Point: expt.SweepPoint{AggregateInner: 1, OuterIters: 5, Converged: true}, Outcome: OutcomeOK},
		{ID: "bbbb", Unit: Unit{ID: "bbbb", Site: 4}, Outcome: OutcomeFailed, Err: "boom"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded["aaaa"].Point.OuterIters != 5 || loaded["bbbb"].Err != "boom" {
		t.Fatalf("round trip: %+v", loaded)
	}
	// Reopening for append preserves the records.
	j2, have2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(have2) != 2 {
		t.Fatalf("reopen: %d records, want 2", len(have2))
	}
}

func TestJournalToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	full := `{"id":"aaaa","unit":{"id":"aaaa","problem":"p","model":"large","step":"first","detector":"off","site":1},"point":{"aggregate_inner":1,"outer_iters":5,"converged":true,"fault_fired":true},"outcome":"ok","elapsed_ms":1}` + "\n"
	trunc := `{"id":"bbbb","unit":{"id":"bb` // crash mid-append
	if err := os.WriteFile(path, []byte(full+trunc), 0o644); err != nil {
		t.Fatal(err)
	}
	have, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("truncated tail must be tolerated: %v", err)
	}
	if len(have) != 1 || have["aaaa"].Point.OuterIters != 5 {
		t.Fatalf("records: %+v", have)
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	good := `{"id":"aaaa","unit":{"id":"aaaa"},"point":{},"outcome":"ok"}` + "\n"
	bad := "not json at all\n"
	if err := os.WriteFile(path, []byte(bad+good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Fatal("mid-file corruption must be reported")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error should name the line: %v", err)
	}
}

func TestETA(t *testing.T) {
	// Two workers finished 10 units in 10 s of wall time: one completion
	// per second overall, so 10 remaining units take 10 s, not 5 s.
	if got := eta(10*time.Second, 10, 10); got != 10*time.Second {
		t.Fatalf("eta = %v, want 10s", got)
	}
	for _, tc := range []struct{ executed, remaining int }{{0, 10}, {10, 0}} {
		if got := eta(10*time.Second, tc.executed, tc.remaining); got != 0 {
			t.Fatalf("eta(executed %d, remaining %d) = %v, want 0", tc.executed, tc.remaining, got)
		}
	}
}
