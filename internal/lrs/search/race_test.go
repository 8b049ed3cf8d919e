//go:build race

package search

func init() { raceDetector = true }
