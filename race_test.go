//go:build race

package repro

// raceEnabled: the race detector allocates shadow memory of its own and
// sync.Pool drops a share of what is put into it, so allocation bounds do
// not hold under it.
const raceEnabled = true
