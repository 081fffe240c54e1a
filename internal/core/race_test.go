//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it, so byte-exact allocation bounds do not hold.
const raceEnabled = true
