//go:build race

package service

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of what it is handed, so no allocation count can rely on it.
const raceEnabled = true
