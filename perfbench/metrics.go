package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two catalogues
// below are the benchmark's contract: BENCHMARK.json lists exactly these
// names and units (the package test checks it), an untraced run prints
// every end-to-end metric and a traced run every per-layer metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible numbers, measured with tracing off.
var endToEnd = []metricDef{
	{"units_per_s", "1/s"},
	{"unit_p50_ms", "ms"},
	{"unit_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_unit", "MB"},
	{"cpu_ms_per_unit", "ms"},
}

// spanLayers are the layers the traced run attributes self time to; a
// span's layer is its name up to the first dot.
var spanLayers = []string{"campaign", "dist", "unit", "store", "client", "http", "service", "core"}

// perLayer are the traced run's numbers. A workload that bypasses a layer
// reports that layer's metrics as 0: no work of that layer was done.
var perLayer = append([]metricDef{
	{"campaign.compile_s", "s"},
	{"campaign.journal_append_us_p50", "us"},
	{"campaign.journal_bytes_per_unit", "B"},
	{"campaign.worker_idle_frac", "frac"},
	{"core.outer_iters_per_unit", "count"},
	{"core.inner_solves_per_unit", "count"},
	{"core.inner_solve_ms_p50", "ms"},
	{"core.outer_self_ms_per_unit", "ms"},
	{"core.prefix_share", "frac"},
	{"krylov.spmvs_per_unit", "count"},
	{"krylov.ortho_mflop_per_unit", "Mflop"},
	{"krylov.inner_gmres_ms", "ms"},
	{"krylov.ortho_lsq_ms", "ms"},
	{"sparse.spmv_us_p50", "us"},
	{"sparse.spmv_gbs_computed", "GB/s"},
	{"detect.checks_per_unit", "count"},
	{"detect.violations_per_unit", "count"},
	{"sandbox.runs_per_unit", "count"},
	{"sandbox.overhead_us", "us"},
	{"store.ingest_us_p50", "us"},
	{"store.bytes_per_record", "B"},
	{"dist.claim_ms_p50", "ms"},
	{"dist.complete_ms_p50", "ms"},
	{"dist.round_trips_per_unit", "count"},
	{"dist.worker_idle_frac", "frac"},
	{"dist.records_rejected", "count"},
	{"dist.duplicates", "count"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.build_matrix_ms", "ms"},
	{"service.notice_lag_ms_p50", "ms"},
	{"service.polls_per_job", "count"},
	{"http.submit_ms_p50", "ms"},
	{"http.get_ms_p50", "ms"},
	{"obs.scrape_ms", "ms"},
	{"obs.scrape_bytes", "B"},
	{"memo.hit_ratio", "frac"},
	{"memo.get_ns_p50", "ns"},
	{"qos.tenant-a.admitted", "count"},
	{"qos.tenant-a.shed", "count"},
	{"qos.tenant-b.admitted", "count"},
	{"qos.tenant-b.shed", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}, selfTimeDefs()...)

func selfTimeDefs() []metricDef {
	defs := make([]metricDef, len(spanLayers))
	for i, l := range spanLayers {
		defs[i] = metricDef{"self." + l + "_ms_per_unit", "ms"}
	}
	return defs
}

// minUnits is the fewest operations a timed phase completes, so that its
// p90 has ten samples beyond it.
const minUnits = 100

// metric is one measured value with the number of samples behind it.
type metric struct {
	value float64
	n     int
}

// metricSet collects a run's values by name.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, n int) { m[name] = metric{value, n} }

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it may be reported: a percentile is printed only when at least
// ten samples lie beyond it, so p50 needs 20 samples and p90 needs 100.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s)-1-i >= 10
}

// p50 is the median of a probe's samples; probes take enough samples for
// it to be reportable, and the caller records the count.
func p50(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkComplete verifies that ms holds exactly the catalogue's names.
func checkComplete(ms metricSet, defs []metricDef) error {
	if len(ms) != len(defs) {
		return fmt.Errorf("have %d metrics, want %d", len(ms), len(defs))
	}
	for _, d := range defs {
		if _, ok := ms[d.name]; !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
	}
	return nil
}
