package ncube

import "unsafe"

// RaceEnabled reports whether the tests run under -race.
func RaceEnabled() bool { return raceEnabled }

// Retained reports the capacity s keeps across Release, in bytes: its
// event calendar (a 24-byte key and a 16-byte event slot per entry), its
// op, node and step slabs, and its payload block.
func Retained(s *Session) (calendar, slabs, block int) {
	calendar = s.q.Cap() * (24 + 16)
	slabs = cap(s.ops)*int(unsafe.Sizeof(treeOp{})) + cap(s.nodes)*int(unsafe.Sizeof(opNode{})) +
		cap(s.steps)*int(unsafe.Sizeof(Step{}))
	return calendar, slabs, cap(s.block) * 8
}

// MaxKeptSteps exports the cap on the step slab a session keeps.
const MaxKeptSteps = maxKeptSteps

// KeptSteps reports the capacity of s's step slab.
func KeptSteps(s *Session) int { return cap(s.steps) }
