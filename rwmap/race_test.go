//go:build race

package rwmap

func init() { raceEnabled = true }
