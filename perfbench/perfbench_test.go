package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runBench runs the command in-process and returns its exit code, its
// standard output and the decoded final line.
func runBench(t *testing.T, args ...string) (int, string, map[string]json.RawMessage) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%v: last line %q is not JSON: %v\nstderr: %s", args, lines[len(lines)-1], err, errOut.String())
	}
	return code, out.String(), last
}

// TestSmokeEveryWorkload runs every workload once at tiny-profile sizes,
// untraced and traced, and checks that each prints exactly its catalogue's
// metrics — each on its own line with its unit and sample count, and in
// the final JSON object with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+traced, func(t *testing.T) {
				code, out, last := runBench(t, "--workload", w.name, "--seed", "7", "--seconds", "0.5",
					"--trace", traced, "--smoke", "--root", t.TempDir())
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, out)
				}
				if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil {
					t.Fatalf("final object keys: %v", last)
				}
				var correct bool
				var failed int
				json.Unmarshal(last["correct"], &correct)
				json.Unmarshal(last["failed"], &failed)
				if !correct || failed != 0 {
					t.Fatalf("correct %t, failed %d\n%s", correct, failed, out)
				}
				var metrics map[string]metricValue
				if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				if len(metrics) != len(defs) {
					t.Errorf("%d metrics in the final object, want %d", len(metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("final object: %s = %+v, want unit %s", d.name, m, d.unit)
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.name) + ` +\S+ +` + regexp.QuoteMeta(d.unit) + ` +n=\d+$`)
					if !line.MatchString(out) {
						t.Errorf("no report line for %s with unit %s", d.name, d.unit)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metric
// catalogues in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, catalogue %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, catalogue has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, catalogue %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestAlteredGoldenRowTripsGate alters one committed sweep row in a copy
// of data/ and runs the full-size Poisson sweep against it: exactly that
// unit must count as failed, and the command must exit non-zero.
func TestAlteredGoldenRowTripsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fast-profile Poisson campaign")
	}
	root := t.TempDir()
	paths, err := filepath.Glob(filepath.Join("..", "data", "*.csv"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("reference CSVs: %v", err)
	}
	if err := os.Mkdir(filepath.Join(root, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	const victim = "fig3a_scale__1e_150_.csv"
	const row = "Poisson,scale(×1e+150),first-MGS,off,101,"
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(p) == victim {
			i := bytes.Index(raw, []byte(row))
			if i < 0 {
				t.Fatalf("%s has no row %q", victim, row)
			}
			// Change the row's outer iteration count by one.
			j := i + len(row)
			raw = append(append(append([]byte{}, raw[:j]...), '1'), raw[j:]...)
		}
		if err := os.WriteFile(filepath.Join(root, "data", filepath.Base(p)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, last := runBench(t, "--workload", "sweep-poisson", "--seed", "3", "--seconds", "1", "--root", root)
	var failed int
	json.Unmarshal(last["failed"], &failed)
	if code == 0 || failed != 1 || !strings.Contains(out, "FAILED unit") || !strings.Contains(out, ",101,") {
		t.Fatalf("exit %d, failed %d; want exit 1 and exactly the altered row failing\n%s", code, failed, out)
	}
}
