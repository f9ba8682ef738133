package collective

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/vc"
)

var update = flag.Bool("update", false, "rewrite testdata/wall.golden from the current program")

const wallGolden = "testdata/wall.golden"

// TestCollectiveWall pins every collective's execution case by case: one
// SHA-256 digest per case over the sorted Finish times, Makespan,
// Messages, TotalBlocked and the delivered Data. The standalone cases run
// all twelve entry points over dims 1..6 × both resolutions × both port
// models × lanes {1, 4} × roots {0, N-1, N/3}, at Workers 1, 2 and 8,
// which must agree. The shared cases run every session launch at 30us
// amid two overlapping multicasts on one session. The concurrent cases
// overlap two all-to-alls of different block sizes and a halving+doubling
// allreduce on one session, so every in-place swap runs while other
// launches move data. Regenerate with:
// go test ./internal/collective -run TestCollectiveWall -update
func TestCollectiveWall(t *testing.T) {
	got := map[string]string{}
	var order []string
	record := func(name, digest string) {
		if prev, dup := got[name]; dup {
			if prev != digest {
				t.Errorf("%s: digest %s differs across worker counts from %s", name, digest, prev)
			}
			return
		}
		got[name] = digest
		order = append(order, name)
	}
	for _, workers := range []int{1, 2, 8} {
		wallStandalone(t, workers, record)
	}
	wallShared(t, record)
	wallConcurrent(t, record)
	if *update {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(wallGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wallGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(wallGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, _ := strings.Cut(sc.Text(), " ")
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		if want[name] != got[name] {
			t.Errorf("%s: digest %s, golden %q", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d cases run, golden holds %d", len(got), len(want))
	}
}

// wallRoots returns the distinct roots {0, N-1, N/3} of an N-node cube.
func wallRoots(nodes int) []topology.NodeID {
	var roots []topology.NodeID
	for _, r := range []int{0, nodes - 1, nodes / 3} {
		if !slices.Contains(roots, topology.NodeID(r)) {
			roots = append(roots, topology.NodeID(r))
		}
	}
	return roots
}

func wallStandalone(t *testing.T, workers int, record func(name, digest string)) {
	for n := 1; n <= 6; n++ {
		for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
			c := topology.New(n, res)
			nodes := c.Nodes()
			for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
				for _, lanes := range []int{1, 4} {
					p := params(pm)
					p.Lanes, p.Workers = lanes, workers
					prefix := fmt.Sprintf("standalone/n=%d/%v/%v/lanes=%d", n, res, pm, lanes)
					timing := func(name string, r Result) {
						record(prefix+"/"+name, wallDigest(r, nil, true))
					}
					data := func(name string, dr DataResult, err error) {
						if err != nil {
							t.Fatalf("%s/%s: %v", prefix, name, err)
						}
						record(prefix+"/"+name, wallDigest(dr.Result, dr.Data, true))
					}
					in := RandomData(int64(100*n+lanes), nodes, 2*nodes)
					timing("barrier", Barrier(p, c))
					timing("allgather", AllGather(p, c, 96))
					timing("allreduce", AllReduce(p, c, 640, 9))
					dr, err := ReduceScatter(p, c, in, 7)
					data("reduce-scatter", dr, err)
					dr, err = AllReduceHD(p, c, in, 7)
					data("allreduce-hd", dr, err)
					dr, err = AllReduceRing(p, c, in, 7)
					data("allreduce-ring", dr, err)
					dr, err = AllToAll(p, c, in)
					data("alltoall", dr, err)
					for _, root := range wallRoots(nodes) {
						rp := fmt.Sprintf("/root=%d", root)
						timing("scatter"+rp, Scatter(p, c, root, 128))
						timing("gather"+rp, Gather(p, c, root, 128))
						timing("reduce"+rp, Reduce(p, c, root, 320, 11))
						dr, err := ReduceData(p, c, root, in, 11)
						data("reduce-data"+rp, dr, err)
						rng := rand.New(rand.NewSource(int64(1000*n + int(root))))
						members := randomMembers(rng, c, root, max(1, nodes/2))
						for _, alg := range core.Algorithms() {
							tr := core.Build(c, alg, root, members)
							// ReduceTree's digest leaves out Makespan.
							record(prefix+"/reduce-tree/"+alg.String()+rp,
								wallDigest(ReduceTree(p, tr, 256, 5), nil, false))
						}
					}
				}
			}
		}
	}
}

func wallShared(t *testing.T, record func(name, digest string)) {
	type port struct {
		pm    core.PortModel
		lanes int
	}
	ports := []port{{core.AllPort, 1}, {core.AllPort, 2}, {core.AllPort, 4}, {core.OnePort, 1}}
	for n := 3; n <= 6; n++ {
		c := topology.New(n, topology.HighToLow)
		nodes := c.Nodes()
		root := topology.NodeID(nodes / 3)
		launches := []struct {
			name   string
			launch func(s *ncube.Session, done func(Result)) (*Result, func() [][]float64)
		}{
			{"scatter", func(s *ncube.Session, done func(Result)) (*Result, func() [][]float64) {
				return ScatterOn(s, root, 512, done), nil
			}},
			{"gather", func(s *ncube.Session, done func(Result)) (*Result, func() [][]float64) {
				return GatherOn(s, root, 512, done), nil
			}},
			{"allgather", func(s *ncube.Session, done func(Result)) (*Result, func() [][]float64) {
				return AllGatherOn(s, 256, done), nil
			}},
			{"reduce-scatter", func(s *ncube.Session, done func(Result)) (*Result, func() [][]float64) {
				return wallData(ReduceScatterOn(s, RandomData(3, nodes, 2*nodes), 7, done))
			}},
			{"allreduce-hd", func(s *ncube.Session, done func(Result)) (*Result, func() [][]float64) {
				return wallData(AllReduceHDOn(s, RandomData(4, nodes, 2*nodes), 7, done))
			}},
			{"allreduce-ring", func(s *ncube.Session, done func(Result)) (*Result, func() [][]float64) {
				return wallData(AllReduceRingOn(s, RandomData(5, nodes, 2*nodes), 7, done))
			}},
			{"alltoall", func(s *ncube.Session, done func(Result)) (*Result, func() [][]float64) {
				return wallData(AllToAllOn(s, RandomData(6, nodes, 2*nodes), done))
			}},
			{"reduce-data", func(s *ncube.Session, done func(Result)) (*Result, func() [][]float64) {
				return wallData(ReduceDataOn(s, root, RandomData(7, nodes, 5), 7, done))
			}},
		}
		for _, pt := range ports {
			p := params(pt.pm)
			p.Lanes = pt.lanes
			for _, l := range launches {
				name := fmt.Sprintf("shared/n=%d/%v/lanes=%d/%s", n, pt.pm, pt.lanes, l.name)
				s := ncube.NewSession(p, c, ncube.Instrumentation{})
				a := core.Build(c, core.WSort, 0, wallRange(1, nodes))
				b := core.Build(c, core.UCube, topology.NodeID(nodes-1), wallRange(0, nodes-1))
				s.InjectTree(0, a, 1024, nil)
				s.InjectTree(20*event.Microsecond, b, 1024, nil)
				var res *Result
				var data func() [][]float64
				var seen []Result
				s.At(30*event.Microsecond, func() {
					res, data = l.launch(s, func(r Result) { seen = append(seen, r) })
				})
				if err := s.Run(0, 0); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(seen) != 1 || !reflect.DeepEqual(seen[0], *res) {
					t.Fatalf("%s: completion hook saw %v, result %+v", name, seen, *res)
				}
				var rows [][]float64
				if data != nil {
					rows = data()
				}
				record(name, wallDigest(*res, rows, true))
				s.Release()
			}
		}
	}
}

// wallConcurrent overlaps three verified launches on one session. The
// first borrows the session's payload block and holds it until its
// verification, so the other two, launched while it runs, draw their
// inputs on the heap.
func wallConcurrent(t *testing.T, record func(name, digest string)) {
	type port struct {
		pm    core.PortModel
		lanes int
	}
	launches := []struct {
		name       string
		op         DataOp
		blockElems int
	}{
		{"alltoall-b2", OpAllToAll, 2},
		{"alltoall-b3", OpAllToAll, 3},
		{"allreduce-hd", OpAllReduceHD, 2},
	}
	for n := 2; n <= 5; n++ {
		c := topology.New(n, topology.HighToLow)
		for _, pt := range []port{{core.AllPort, 1}, {core.OnePort, 1}, {core.AllPort, 4}} {
			p := params(pt.pm)
			p.Lanes, p.VCPolicy = pt.lanes, vc.RoundRobin
			prefix := fmt.Sprintf("concurrent/n=%d/%v/lanes=%d", n, pt.pm, pt.lanes)
			s := ncube.NewSession(p, c, ncube.Instrumentation{})
			var results [3]*Result
			for i, l := range launches {
				s.At(event.Time(10*i)*event.Microsecond, func() {
					LaunchVerified(s, l.op, int64(10*n+1+i), l.blockElems, func(r Result, err error) {
						if err != nil {
							t.Errorf("%s/%s: %v", prefix, l.name, err)
						}
						results[i] = &r
					})
				})
			}
			if err := s.Run(0, 0); err != nil {
				t.Fatalf("%s: %v", prefix, err)
			}
			for i, l := range launches {
				if results[i] == nil {
					t.Fatalf("%s/%s: never completed", prefix, l.name)
				}
				record(prefix+"/"+l.name, wallDigest(*results[i], nil, true))
			}
			s.Release()
		}
	}
}

// wallData splits a data launch into its timing result and a reader of
// the delivered vectors.
func wallData(dr *DataResult) (*Result, func() [][]float64) {
	return &dr.Result, func() [][]float64 { return dr.Data }
}

// wallRange lists the node IDs in [lo, hi).
func wallRange(lo, hi int) []topology.NodeID {
	out := make([]topology.NodeID, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, topology.NodeID(v))
	}
	return out
}

// wallDigest hashes a result: Finish in node order, Makespan when asked,
// Messages, TotalBlocked, then every element of data bit for bit.
func wallDigest(r Result, data [][]float64, makespan bool) string {
	h := sha256.New()
	nodes := make([]topology.NodeID, 0, len(r.Finish))
	for v := range r.Finish {
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)
	for _, v := range nodes {
		fmt.Fprintf(h, "%d %d\n", v, r.Finish[v])
	}
	if makespan {
		fmt.Fprintf(h, "makespan %d\n", r.Makespan)
	}
	fmt.Fprintf(h, "messages %d blocked %d\n", r.Messages, r.TotalBlocked)
	var buf [8]byte
	for _, row := range data {
		fmt.Fprintf(h, "row %d\n", len(row))
		for _, x := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
