package hypercube_test

import (
	"fmt"

	"hypercube"
)

// The paper's running example: multicast from node 0000 of a 4-cube to
// eight destinations. W-sort finishes in two steps on an all-port machine
// (Figure 3(e)); U-cube needs four (Figure 3(d)).
func Example() {
	cube := hypercube.New(4, hypercube.HighToLow)
	dests := []hypercube.NodeID{1, 3, 5, 7, 11, 12, 14, 15}

	for _, a := range []hypercube.Algorithm{hypercube.UCube, hypercube.WSort} {
		tree := hypercube.Multicast(cube, a, 0, dests)
		sched := hypercube.Schedule(tree, hypercube.AllPort)
		fmt.Printf("%s: %d steps, contention-free=%v\n",
			a, sched.Steps(), len(hypercube.CheckContention(sched)) == 0)
	}
	// Output:
	// u-cube: 4 steps, contention-free=true
	// w-sort: 2 steps, contention-free=true
}

// Building the weighted chain of Figure 8: the tree's structure shows the
// source using all four ports in parallel.
func ExampleMetrics() {
	cube := hypercube.New(4, hypercube.HighToLow)
	dests := []hypercube.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	tree := hypercube.Multicast(cube, hypercube.WSort, 0, dests)
	m := hypercube.Metrics(tree, dests)
	fmt.Println(m)
	// Output:
	// unicasts=8 height=2 hops=13 maxdeg=4 reuses=0 relays=0
}

// Simulating the multicast on the calibrated nCUBE-2 model: a contention-
// free execution never blocks a header.
func ExampleSimulate() {
	cube := hypercube.New(4, hypercube.HighToLow)
	dests := []hypercube.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	tree := hypercube.Multicast(cube, hypercube.WSort, 0, dests)
	res := hypercube.Simulate(hypercube.NCube2Params(hypercube.AllPort), tree, 4096)
	fmt.Printf("destinations reached: %d, header blocking: %s\n",
		len(res.Recv), res.TotalBlocked.Micros())
	// Output:
	// destinations reached: 8, header blocking: 0.00us
}

// The one-port lower bound the paper cites, and the all-port bound that
// motivates port-aware algorithms.
func ExampleStepLowerBound() {
	fmt.Println(hypercube.StepLowerBound(hypercube.OnePort, 4, 8))
	fmt.Println(hypercube.StepLowerBound(hypercube.AllPort, 4, 8))
	// Output:
	// 4
	// 2
}

// Broadcast reduces to the classic binomial spanning tree.
func ExampleBroadcast() {
	cube := hypercube.New(5, hypercube.HighToLow)
	tree := hypercube.Broadcast(cube, hypercube.Maxport, 0)
	fmt.Println(hypercube.Schedule(tree, hypercube.AllPort).Steps())
	// Output:
	// 5
}

// Reduction over a subset: run the W-sort multicast tree backwards, so the
// eight members' partial results converge on node 0. The root assembles
// the result last, so the makespan is its finish time.
func ExampleReduceTree() {
	cube := hypercube.New(4, hypercube.HighToLow)
	dests := []hypercube.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	tree := hypercube.Multicast(cube, hypercube.WSort, 0, dests)
	r := hypercube.ReduceTree(hypercube.NCube2Params(hypercube.AllPort), tree, 1024, 0)
	fmt.Printf("messages: %d, makespan: %s, root finish: %s\n",
		r.Messages, r.Makespan.Micros(), r.Finish[0].Micros())
	// Output:
	// messages: 8, makespan: 1720.40us, root finish: 1720.40us
}
