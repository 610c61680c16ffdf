//go:build race

package main

// raceEnabled reports that the race detector is on. Its sync.Pool drops
// pooled buffers at random on purpose, so allocation counts that depend on
// pool reuse do not hold under -race.
const raceEnabled = true
