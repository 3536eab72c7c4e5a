//go:build race

package svd

func init() { raceEnabled = true }
