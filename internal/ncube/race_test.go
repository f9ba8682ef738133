//go:build race

package ncube

func init() { raceEnabled = true }
