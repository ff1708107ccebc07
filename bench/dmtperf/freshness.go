package main

import "time"

// change is a trainer structure version coming into being: the return of
// the Learn call that moved StructureVersion to version.
type change struct {
	version uint64
	at      time.Time
}

// install is the replica's OnInstall report of a version.
type install struct {
	version uint64
	at      time.Time
}

// freshness matches each change to the first install, in install order,
// whose version is at least the change's: a replica that skips straight
// past v still makes v visible. The sample is the time from the change
// to that install, in ms. An install cannot precede the version it
// carries, so a negative gap only means the trainer goroutine stamped
// its clock late; it reads 0. Changes no install reached are counted in
// unmatched.
func freshness(changes []change, installs []install) (samples []float64, unmatched int) {
	j := 0
	for _, c := range changes {
		for j < len(installs) && installs[j].version < c.version {
			j++
		}
		if j == len(installs) {
			unmatched++
			continue
		}
		samples = append(samples, max(0, ms(installs[j].at.Sub(c.at))))
	}
	return samples, unmatched
}
