//go:build race

package fs

// raceEnabled reports that the race detector is instrumenting this
// build; its shadow-memory bookkeeping allocates, so per-op allocation
// assertions are skipped (the counts are pinned by the non-race run).
const raceEnabled = true
