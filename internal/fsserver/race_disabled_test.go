//go:build !race

package fsserver

const raceEnabled = false
