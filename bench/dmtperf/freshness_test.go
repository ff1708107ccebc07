package main

import (
	"slices"
	"testing"
	"time"
)

func TestFreshnessFirstInstallAtOrPastVersion(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	changes := []change{
		{version: 2, at: at(0)},
		{version: 3, at: at(10)}, // skipped: the replica goes from 2 to 4
		{version: 4, at: at(20)},
		{version: 5, at: at(100)}, // stamped after its install: reads 0
		{version: 6, at: at(200)}, // never installed
	}
	installs := []install{
		{version: 2, at: at(40)},
		{version: 4, at: at(70)},
		{version: 5, at: at(95)},
	}
	got, unmatched := freshness(changes, installs)
	if want := []float64{40, 60, 50, 0}; !slices.Equal(got, want) {
		t.Errorf("freshness = %v, want %v", got, want)
	}
	if unmatched != 1 {
		t.Errorf("unmatched = %d, want 1", unmatched)
	}
}
