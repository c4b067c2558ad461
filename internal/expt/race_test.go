//go:build race

package expt

// raceEnabled thins the replay equivalence grid under the race detector,
// which slows the solver kernels about fortyfold; the plain test run covers
// the full grid.
const raceEnabled = true
