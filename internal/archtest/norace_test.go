//go:build !race

package archtest

const raceEnabled = false
