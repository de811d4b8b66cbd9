//go:build race

package wfm

// raceEnabled: the race detector allocates on the program's behalf and
// drops a share of sync.Pool puts, so allocation counts taken under it
// are not the program's.
const raceEnabled = true
