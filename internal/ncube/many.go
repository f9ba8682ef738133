package ncube

import (
	"hypercube/internal/core"
)

// RunMany executes several multicast trees concurrently on ONE shared
// interconnect, all injected at time zero into one borrowed Session. The
// paper's contention-freedom theorems cover the unicasts *within* one
// multicast; this entry point measures what they deliberately do not
// promise — interference *between* simultaneous multicasts — which grows
// with load and affects every algorithm. ins observes the shared
// interconnect and event queue (see Instrumentation).
//
// All trees must live on the same cube. The returned slice is indexed like
// trees; TotalBlocked on each result carries the same network-wide total.
func RunMany(p Params, trees []*core.Tree, bytes int, ins Instrumentation) []Result {
	if len(trees) == 0 {
		return nil
	}
	cube := trees[0].Cube
	for _, tr := range trees[1:] {
		if tr.Cube != cube {
			panic("ncube: RunMany requires a common cube")
		}
	}
	s := NewSession(p, cube, ins)
	ins.Metrics.Counter("mcast_runs").Add(int64(len(trees)))
	ops := make([]*Result, len(trees))
	for i, tr := range trees {
		ops[i] = s.InjectTree(0, tr, bytes, nil)
	}
	if err := s.Run(0, 0); err != nil {
		panic(err)
	}
	results := make([]Result, len(trees))
	for i, r := range ops {
		results[i] = *r
		results[i].TotalBlocked = s.net.TotalBlocked()
	}
	s.Release()
	return results
}
