package ncube

import (
	"hypercube/internal/core"
	"hypercube/internal/event"
)

// runQueue drives one run's calendar under the configured execution mode:
// Workers <= 1 is the classic single-threaded RunBudget loop; Workers > 1
// routes the same calendar through the conservative parallel executor as a
// single logical process. One shared network is one conflict domain, so a
// lone run gains no concurrency from extra workers — the parallel path
// exists so that EVERY entry point exercises the same kernel the batch
// runners use, which is what lets the differential test wall assert
// byte-identity between the two executors on real machine workloads.
func runQueue(q *event.Queue, workers, maxSteps int, maxTime event.Time) (event.Time, error) {
	if workers <= 1 {
		return q.RunBudget(maxSteps, maxTime)
	}
	pq := event.NewParallel(workers, 0)
	pq.Add(q)
	return pq.Run(maxSteps, maxTime)
}

// RunParallel executes a batch of independent multicast runs — one Session
// (calendar + private network) per tree, every session's calendar one
// logical process of a single event.ParallelQueue — across p.Workers
// worker goroutines and returns the results in tree order. Every run is the
// byte-exact sequential execution of Run(p, trees[i], bytes): workers only
// decide which OS thread drives which run, never the order of events inside
// one. With p.Workers <= 1 the batch still routes through the parallel
// executor on a single worker, so the batch path has one code shape at
// every worker count.
//
// A metrics registry in ins is attached to every run (the registry is
// fully atomic, so concurrent runs may share it — counts are identical to
// the sequential sum at any worker count). Tracers are rejected: a tracer
// observes one interleaved channel-event stream and is not safe to share
// across concurrently executing runs; trace single runs with
// RunInstrumented instead.
func RunParallel(p Params, trees []*core.Tree, bytes int, ins Instrumentation) []Result {
	if ins.Tracer != nil {
		panic("ncube: RunParallel does not accept a tracer; trace single runs with RunInstrumented")
	}
	if len(trees) == 0 {
		return nil
	}
	sessions := make([]*Session, len(trees))
	ops := make([]*Result, len(trees))
	pq := event.NewParallel(p.Workers, 0)
	for i, tr := range trees {
		s := NewSession(p, tr.Cube, ins)
		ops[i] = s.InjectTree(0, tr, bytes, nil)
		s.q.SetDiagnoser(s.diagFn)
		pq.Add(&s.q)
		sessions[i] = s
	}
	ins.Metrics.Counter("mcast_runs").Add(int64(len(trees)))

	if _, err := pq.Run(0, 0); err != nil {
		// Default budgets on fault-free trees: only a simulator bug can
		// trip the watchdog. Keep RunInstrumented's panicking contract.
		panic(err)
	}
	results := make([]Result, len(trees))
	for i, s := range sessions {
		results[i] = *ops[i]
		s.Release()
	}
	return results
}
