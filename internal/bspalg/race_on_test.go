//go:build race

package bspalg

const raceEnabled = true
