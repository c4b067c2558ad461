package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"sdcgmres/internal/expt"
)

// sweepHeader is the first line of every committed sweep CSV.
const sweepHeader = "problem,model,step,detector,aggregate_inner,outer_iters,converged,detections,fault_fired,wrong_answer"

// golden maps a sweep row's identity — its first five columns: problem,
// model, step, detector and site — to the full reference row. Smoke mode
// fills it while workers may already read it, hence the lock.
type golden struct {
	mu   sync.Mutex
	rows map[string]string
}

func newGolden() *golden { return &golden{rows: map[string]string{}} }

// loadGolden indexes every sweep row of the committed CSVs in dir.
func loadGolden(dir string) (*golden, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	g := newGolden()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if len(lines) == 0 || lines[0] != sweepHeader {
			continue
		}
		for _, row := range lines[1:] {
			g.rows[rowKey(row)] = row
		}
	}
	if len(g.rows) == 0 {
		return nil, fmt.Errorf("no sweep reference rows under %s", dir)
	}
	return g, nil
}

// rowKey is a row's first five columns.
func rowKey(row string) string {
	f := strings.SplitN(row, ",", 6)
	if len(f) < 6 {
		return row
	}
	return strings.Join(f[:5], ",")
}

// renderRow renders one point exactly as the figure CSV writer does.
func renderRow(label string, cfg expt.SweepConfig, pt expt.SweepPoint) (string, error) {
	var buf bytes.Buffer
	if err := expt.WriteSweepCSV(&buf, label, cfg, []expt.SweepPoint{pt}); err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	return lines[len(lines)-1], nil
}

// put records a reference row (smoke mode).
func (g *golden) put(row string) {
	g.mu.Lock()
	g.rows[rowKey(row)] = row
	g.mu.Unlock()
}

// check renders pt and compares it with its reference row.
func (g *golden) check(label string, cfg expt.SweepConfig, pt expt.SweepPoint) error {
	row, err := renderRow(label, cfg, pt)
	if err != nil {
		return err
	}
	g.mu.Lock()
	want, ok := g.rows[rowKey(row)]
	g.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("no reference row for %s", rowKey(row))
	case want != row:
		return fmt.Errorf("row %q, reference %q", row, want)
	}
	return nil
}
