//go:build !race

package wfm

const raceEnabled = false
