// Datapar: the data-parallel redistribution scenario from the paper's
// introduction. A 2^r x 2^c processor grid is embedded in an (r+c)-cube
// (row bits high, column bits low) and organized into MPI-style
// communicators. Each iteration of a data-parallel solver ends with every
// diagonal processor broadcasting its block to its whole row and column —
// the communication pattern of matrix-vector and LU-style kernels. All 16
// group broadcasts run *concurrently on one interconnect*, so the phase
// time includes real cross-group interference.
package main

import (
	"fmt"

	"hypercube"
	"hypercube/internal/seeded"
)

const (
	rowBits = 3 // 8 rows
	colBits = 3 // 8 columns
	bytes   = 4096
	phases  = 20
)

func main() {
	n := rowBits + colBits
	cube := hypercube.New(n, hypercube.HighToLow)
	world := hypercube.World(cube)
	params := hypercube.NCube2Params(hypercube.AllPort)

	// Row groups fix the high bits, column groups the low bits.
	rows := world.Split(func(rank int) int { return rank >> colBits })
	cols := world.Split(func(rank int) int { return rank & (1<<colBits - 1) })

	fmt.Printf("8x8 processor grid in a %d-cube (%d nodes).\n", n, cube.Nodes())
	fmt.Println("Each iteration, every diagonal node (i,i) multicasts its updated")
	fmt.Println("block to the row and column processors whose data it touches — an")
	fmt.Println("irregular, data-dependent subset, the paper's multicast workload.")
	fmt.Printf("All 16 group multicasts of an iteration share one interconnect;")
	fmt.Printf(" average of %d iterations:\n\n", phases)

	for _, alg := range []hypercube.Algorithm{
		hypercube.SeparateAddressing, hypercube.UCube, hypercube.Maxport,
		hypercube.Combine, hypercube.WSort,
	} {
		rng := seeded.New(7) // same subsets for every algorithm
		var sum hypercube.Time
		for it := 0; it < phases; it++ {
			var groups []*hypercube.Comm
			var roots []int
			for i := 0; i < 1<<rowBits; i++ {
				// The affected processors: a random half of row
				// i plus a random half of column i.
				var ranks []int
				for r := 0; r < 1<<colBits; r++ {
					if r != i && rng.Intn(2) == 0 {
						ranks = append(ranks, r)
					}
				}
				sub, err := rows[i].Sub(append([]int{i}, ranks...))
				if err != nil {
					panic(err)
				}
				groups = append(groups, sub)
				roots = append(roots, 0)

				ranks = ranks[:0]
				for r := 0; r < 1<<rowBits; r++ {
					if r != i && rng.Intn(2) == 0 {
						ranks = append(ranks, r)
					}
				}
				subC, err := cols[i].Sub(append([]int{i}, ranks...))
				if err != nil {
					panic(err)
				}
				groups = append(groups, subC)
				roots = append(roots, 0)
			}
			results := hypercube.Phase(params, bytes, alg, groups, roots)
			var phase hypercube.Time
			for _, r := range results {
				if r.Makespan > phase {
					phase = r.Makespan
				}
			}
			sum += phase
		}
		fmt.Printf("%-10s avg phase %s\n", alg, (sum / phases).Micros())
	}

	fmt.Println()
	fmt.Println("W-sort keeps each group's tree shallow and port-parallel, so even")
	fmt.Println("with 16 overlapping multicasts per iteration the phase ends sooner.")
}
