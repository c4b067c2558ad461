//go:build race

package core

// raceEnabled thins the recording equivalence grid under the race
// detector, which slows the solver kernels about fortyfold; the plain test
// run covers the full grid.
const raceEnabled = true
