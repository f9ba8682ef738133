// Data-carrying reduction collectives: the schedules here move real
// per-node vectors through the simulated network, not just byte counts.
// Payloads ride in the data field of sendSpec — the wormhole model only
// ever sees message sizes — so a data-carrying execution produces exactly
// the event schedule its timing-only counterpart would, while the final
// per-node vectors expose any block delivered to the wrong node at the
// wrong round. Every standalone entry point verifies its result against
// the closed-form expectation element by element before returning;
// session launches leave verification to the caller, who holds the
// inputs.
//
// Ownership: a session launch (the ...On functions) takes ownership of
// its input vectors and runs in place on them — DataResult.Data is those
// same vectors, rewritten — and every message payload is a view of its
// sender's buffer, not a copy (see each schedule for why the viewed range
// is not written again before the receiver has absorbed it). The
// standalone entry points validate the caller's input, copy it once into
// one flat backing, and never modify it. They validate before copying
// because the copy takes its row length from the first row.
//
// Arithmetic note: verification demands exact float64 equality, which
// holds regardless of combine order whenever the inputs are integer-valued
// and the totals stay below 2^53 — the contract RandomData supplies.
package collective

import (
	"fmt"
	"math/rand"

	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/seeded"
	"hypercube/internal/topology"
)

// ElemBytes is the wire size charged per payload vector element.
const ElemBytes = 8

// DataResult couples a collective's timing Result with the final per-node
// payload vectors the schedule delivered. Data[v] is node v's local vector
// when the operation completed: its own reduced block for ReduceScatter,
// the full reduced vector for the allreduce variants and (at the root) for
// ReduceData, and the gathered permutation for AllToAll.
type DataResult struct {
	Result
	Data [][]float64
}

// RandomData draws integer-valued per-node vectors deterministically from
// seed: nodes vectors of elems elements each, values in [-512, 512). With
// integer values, float64 sums are exact independent of association order
// until 2^53 — so a verified result never depends on the schedule's
// combine order. The rows share one backing, each capacity-clipped so an
// append to one cannot overwrite the next.
func RandomData(seed int64, nodes, elems int) [][]float64 {
	rng := seeded.Borrow(seed)
	defer seeded.Return(rng)
	out := matrix[float64](nodes, elems)
	for _, row := range out {
		fillRandom(rng, row)
	}
	return out
}

// fillRandom draws the next len(row) RandomData values from rng. Each is
// rng.Intn(1024) - 512, value for value: for a power-of-two bound, Intn
// masks the top 31 bits of one Int63 draw, as done here inline.
func fillRandom(rng *rand.Rand, row []float64) {
	for i := range row {
		row[i] = float64(int(rng.Int63()>>32)&1023 - 512)
	}
}

// matrix returns a rows×cols matrix of zero values on one backing, each
// row capacity-clipped.
func matrix[T any](rows, cols int) [][]T {
	backing := make([]T, rows*cols)
	out := make([][]T, rows)
	for r := range out {
		out[r] = backing[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return out
}

// cloneRows is the one copy a standalone entry point makes of its
// (already validated, uniform-length) input before running in place.
func cloneRows(in [][]float64) [][]float64 {
	out := matrix[float64](len(in), len(in[0]))
	for v := range in {
		copy(out[v], in[v])
	}
	return out
}

// blockOf validates a block-structured input — one vector per node, all of
// equal length N*b for some block size b >= 1 — and returns b. The
// block-partitioned collectives (ReduceScatter, AllReduce, AllToAll)
// panic through here on malformed input, like the timing-only entry
// points do on malformed parameters.
func blockOf(cube topology.Cube, in [][]float64) int {
	n := cube.Nodes()
	if len(in) != n {
		panic(fmt.Sprintf("collective: %d input vectors for a %d-node cube", len(in), n))
	}
	l := len(in[0])
	if l == 0 || l%n != 0 {
		panic(fmt.Sprintf("collective: vector length %d not a positive multiple of %d nodes", l, n))
	}
	for v := range in {
		if len(in[v]) != l {
			panic(fmt.Sprintf("collective: node %d vector length %d != %d", v, len(in[v]), l))
		}
	}
	return l / n
}

// uniformLen validates a shape-free input (ReduceData): one vector per
// node, all the same nonzero length, returned.
func uniformLen(cube topology.Cube, in [][]float64) int {
	n := cube.Nodes()
	if len(in) != n {
		panic(fmt.Sprintf("collective: %d input vectors for a %d-node cube", len(in), n))
	}
	l := len(in[0])
	if l == 0 {
		panic("collective: empty input vectors")
	}
	for v := range in {
		if len(in[v]) != l {
			panic(fmt.Sprintf("collective: node %d vector length %d != %d", v, len(in[v]), l))
		}
	}
	return l
}

// columnSum is the elementwise sum over all nodes' vectors.
func columnSum(in [][]float64) []float64 {
	sum := append([]float64(nil), in[0]...)
	for v := 1; v < len(in); v++ {
		for i, x := range in[v] {
			sum[i] += x
		}
	}
	return sum
}

// ExpectedAllReduce returns the analytic allreduce expectation: every node
// ends with the elementwise sum of all inputs. The rows are one shared,
// read-only column sum, so the expectation costs one vector, not N; it
// does not alias in, so it may be built before a launch consumes in.
func ExpectedAllReduce(in [][]float64) [][]float64 {
	sum := columnSum(in)
	out := make([][]float64, len(in))
	for v := range out {
		out[v] = sum
	}
	return out
}

// ExpectedReduceScatter returns the analytic reduce-scatter expectation:
// node v ends with block v of the elementwise sum. The rows are read-only
// views of one column sum.
func ExpectedReduceScatter(in [][]float64) [][]float64 {
	sum := columnSum(in)
	b := len(sum) / len(in)
	out := make([][]float64, len(in))
	for v := range out {
		out[v] = sum[v*b : (v+1)*b : (v+1)*b]
	}
	return out
}

// VerifyData compares delivered per-node vectors against an expectation
// element by element (exact equality) and names the first divergence.
func VerifyData(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("collective: %d result vectors, want %d", len(got), len(want))
	}
	for v := range want {
		if len(got[v]) != len(want[v]) {
			return fmt.Errorf("collective: node %d result length %d, want %d", v, len(got[v]), len(want[v]))
		}
		for i := range want[v] {
			if got[v][i] != want[v][i] {
				return fmt.Errorf("collective: node %d element %d: got %v, want %v", v, i, got[v][i], want[v][i])
			}
		}
	}
	return nil
}

// VerifyAllToAll checks an all-to-all result against the transpose of
// the block matrix in — slot s of node t's result must be block t of node
// s's input — by index, materializing nothing, and names the first
// divergence in source order.
func VerifyAllToAll(got, in [][]float64) error {
	if err := checkShape(got, len(in), len(in[0])); err != nil {
		return err
	}
	for s, row := range in {
		if err := checkSourceRow(got, s, row); err != nil {
			return err
		}
	}
	return nil
}

// VerifyAllToAllSeeded is VerifyAllToAll against the input
// RandomData(seed, nodes, elems), re-streamed one row at a time instead
// of kept — for callers whose launch consumed that input in place.
func VerifyAllToAllSeeded(got [][]float64, seed int64, nodes, elems int) error {
	if err := checkShape(got, nodes, elems); err != nil {
		return err
	}
	rng := seeded.Borrow(seed)
	defer seeded.Return(rng)
	row := make([]float64, elems)
	for s := 0; s < nodes; s++ {
		fillRandom(rng, row)
		if err := checkSourceRow(got, s, row); err != nil {
			return err
		}
	}
	return nil
}

// checkShape requires nodes result vectors of elems elements each.
func checkShape(got [][]float64, nodes, elems int) error {
	if len(got) != nodes {
		return fmt.Errorf("collective: %d result vectors, want %d", len(got), nodes)
	}
	for v := range got {
		if len(got[v]) != elems {
			return fmt.Errorf("collective: node %d result length %d, want %d", v, len(got[v]), elems)
		}
	}
	return nil
}

// checkSourceRow compares source s's input row, block by block, with
// slot s of every node's all-to-all result.
func checkSourceRow(got [][]float64, s int, row []float64) error {
	b := len(row) / len(got)
	for t := range got {
		for j := 0; j < b; j++ {
			if x, want := got[t][s*b+j], row[t*b+j]; x != want {
				return fmt.Errorf("collective: node %d element %d: got %v, want %v", t, s*b+j, x, want)
			}
		}
	}
	return nil
}

// attachData reroutes the engine's result into a DataResult and installs a
// completion hook that captures the final per-node vectors at the instant
// the last node finishes — before the launch's done hook observes the
// result, so a traffic-engine callback can already read Data.
func attachData(e *engine, capture func() [][]float64) *DataResult {
	dr := &DataResult{Result: *e.res}
	e.res = &dr.Result
	user := e.onDone
	e.onDone = func(r Result) {
		dr.Data = capture()
		if user != nil {
			user(r)
		}
	}
	return dr
}

// elems is a data-carrying message as a skeleton's outbound returns it:
// the payload's wire size, and the payload.
func elems(data []float64) (int, []float64) { return len(data) * ElemBytes, data }

// ownedRange returns the contiguous block range [lo, hi) whose indices
// agree with v on every dimension >= d — the blocks v is responsible for
// after the recursive-halving rounds above d have run.
func ownedRange(v topology.NodeID, d int) (lo, hi int) {
	lo = (int(v) >> uint(d)) << uint(d)
	return lo, lo + 1<<uint(d)
}

// halvingDoublingOn launches the recursive-halving reduce-scatter —
// followed, unless scatterOnly, by the recursive-doubling allgather of the
// reduced blocks (the bandwidth-optimal halving+doubling allreduce). In
// halving round k the exchange crosses dimension n-1-k: each node ships
// its partner's half of its active block range and folds the received
// half into its own; after n rounds node v holds block v of the total.
// The doubling rounds then cross dimensions 0..n-1, copying the
// fully-reduced ranges back out until every node holds the whole sum.
//
// Runs in place on work. Both kinds of payload are views of the sender's
// vector. A halving payload is the partner's half, which the sender next
// writes only when it absorbs the doubling round on the same dimension —
// a message the partner sends after absorbing that halving payload; the
// sender's halving and lower-dimension doubling writes all stay inside its
// own half. A doubling payload is the sender's fully reduced range, which
// its remaining (higher-dimension) doubling rounds never touch.
func halvingDoublingOn(s *ncube.Session, work [][]float64, tCompute event.Time, scatterOnly bool, done func(Result)) *DataResult {
	cube := s.Network().Cube()
	b := blockOf(cube, work)
	n := cube.Dim()
	e := newEngine(s, cube.Nodes(), done)
	capture := func() [][]float64 {
		if !scatterOnly {
			return work
		}
		out := make([][]float64, len(work))
		for v := range work {
			out[v] = work[v][v*b : (v+1)*b : (v+1)*b]
		}
		return out
	}
	dr := attachData(e, capture)
	rounds := 2 * n
	if scatterOnly {
		rounds = n
	}
	dimOf := func(k int) int {
		if k < n {
			return n - 1 - k
		}
		return k - n
	}
	peer := func(v topology.NodeID, k int) topology.NodeID { return cube.Neighbor(v, dimOf(k)) }
	outbound := func(v topology.NodeID, k int) (int, []float64) {
		d := dimOf(k)
		var lo, hi int
		if k < n {
			lo, hi = ownedRange(cube.Neighbor(v, d), d) // partner's half
		} else {
			lo, hi = ownedRange(v, d) // v's fully-reduced range
		}
		return elems(work[v][lo*b : hi*b])
	}
	absorb := func(v topology.NodeID, k int, data []float64) {
		d := dimOf(k)
		if k < n {
			lo, _ := ownedRange(v, d)
			seg := work[v][lo*b : lo*b+len(data)]
			for i, x := range data {
				seg[i] += x
			}
		} else {
			lo, _ := ownedRange(cube.Neighbor(v, d), d)
			copy(work[v][lo*b:lo*b+len(data)], data)
		}
	}
	e.exchange(rounds, peer, outbound, absorb, tCompute)
	return dr
}

// ReduceScatter reduces the nodes' equal-length vectors elementwise and
// leaves block v of the total at node v, via the recursive-halving
// schedule (n rounds, dimension-descending, each message one channel).
// The input is one vector per node, every vector N*b elements; the result
// is verified against ExpectedReduceScatter before returning.
func ReduceScatter(p ncube.Params, cube topology.Cube, in [][]float64, tCompute event.Time) (DataResult, error) {
	blockOf(cube, in)
	dr := run(p, cube, func(s *ncube.Session) *DataResult { return ReduceScatterOn(s, cloneRows(in), tCompute, nil) })
	return dr, VerifyData(dr.Data, ExpectedReduceScatter(in))
}

// ReduceScatterOn launches ReduceScatter's schedule on s at the calendar's
// current time, taking ownership of in (it runs in place; Data's rows are
// views of in). The caller drives the calendar and verifies Data against
// an ExpectedReduceScatter built before the launch; done (if non-nil)
// fires when the last node finishes, after Data is set.
func ReduceScatterOn(s *ncube.Session, in [][]float64, tCompute event.Time, done func(Result)) *DataResult {
	if tCompute < 0 {
		panic("collective: negative reduce-scatter compute time")
	}
	return halvingDoublingOn(s, in, tCompute, true, done)
}

// AllReduceHD is the data-carrying halving+doubling allreduce: a
// recursive-halving reduce-scatter followed by a recursive-doubling
// allgather of the reduced blocks — 2n rounds moving 2(N-1)/N of the
// vector per node, the bandwidth-optimal hypercube schedule. Every node
// ends with the elementwise total, verified before returning.
func AllReduceHD(p ncube.Params, cube topology.Cube, in [][]float64, tCompute event.Time) (DataResult, error) {
	blockOf(cube, in)
	dr := run(p, cube, func(s *ncube.Session) *DataResult { return AllReduceHDOn(s, cloneRows(in), tCompute, nil) })
	return dr, VerifyData(dr.Data, ExpectedAllReduce(in))
}

// AllReduceHDOn launches AllReduceHD's schedule on s, taking ownership of
// in (Data is in, reduced in place); the caller drives the calendar and
// verifies Data against an ExpectedAllReduce built before the launch.
func AllReduceHDOn(s *ncube.Session, in [][]float64, tCompute event.Time, done func(Result)) *DataResult {
	if tCompute < 0 {
		panic("collective: negative allreduce compute time")
	}
	return halvingDoublingOn(s, in, tCompute, false, done)
}

// AllReduceRing is the data-carrying ring allreduce on the Gray-code
// Hamiltonian cycle: bandwidth-identical to halving+doubling (2(N-1)
// single-block steps per node) but latency-heavier — the classic
// large-vector gradient-aggregation schedule. Verified before returning.
func AllReduceRing(p ncube.Params, cube topology.Cube, in [][]float64, tCompute event.Time) (DataResult, error) {
	blockOf(cube, in)
	dr := run(p, cube, func(s *ncube.Session) *DataResult { return AllReduceRingOn(s, cloneRows(in), tCompute, nil) })
	return dr, VerifyData(dr.Data, ExpectedAllReduce(in))
}

// AllReduceRingOn launches the ring allreduce on s, taking ownership of in
// (Data is in, reduced in place); the caller drives the calendar and
// verifies Data against an ExpectedAllReduce built before the launch.
//
// The ring is the binary-reflected Gray-code Hamiltonian cycle of the cube
// (consecutive ring positions are hypercube neighbors, so every hand-off
// crosses one channel), run as an exchange whose every step's peer is the
// ring successor. Each node pipelines 2(N-1) single-block steps: N-1
// reduce-scatter steps, in which step s moves chunk (p-s) mod N from ring
// position p to p+1 and the receiver folds in its contribution, then N-1
// allgather steps circulating the finished chunks. A node issues step s+1
// as soon as it has absorbed step s from its predecessor, so the pipeline
// keeps every ring link busy.
//
// Each payload is a view of the shipped chunk. A node next writes the
// chunk it shipped at step s when it absorbs step s+N-1, a message that
// leaves its predecessor only after the receiver of step s absorbed it and
// the chain of N-1 hand-offs it started came back around the ring.
func AllReduceRingOn(s *ncube.Session, in [][]float64, tCompute event.Time, done func(Result)) *DataResult {
	if tCompute < 0 {
		panic("collective: negative allreduce compute time")
	}
	cube := s.Network().Cube()
	b := blockOf(cube, in)
	nodes := cube.Nodes()
	ring := make([]topology.NodeID, nodes) // position -> node (Gray code)
	pos := make([]int, nodes)              // node -> position
	for i := 0; i < nodes; i++ {
		g := topology.NodeID(i ^ (i >> 1))
		ring[i] = g
		pos[g] = i
	}
	e := newEngine(s, nodes, done)
	dr := attachData(e, func() [][]float64 { return in })
	mod := func(x int) int { return ((x % nodes) + nodes) % nodes }
	// chunkSent is the chunk ring position p ships at step s.
	chunkSent := func(p, s int) int {
		if s < nodes-1 {
			return mod(p - s)
		}
		return mod(p + 1 - (s - (nodes - 1)))
	}
	peer := func(v topology.NodeID, _ int) topology.NodeID { return ring[mod(pos[v]+1)] }
	outbound := func(v topology.NodeID, s int) (int, []float64) {
		c := chunkSent(pos[v], s)
		return elems(in[v][c*b : (c+1)*b])
	}
	absorb := func(v topology.NodeID, s int, data []float64) {
		c := chunkSent(mod(pos[v]-1), s) // what the predecessor shipped
		seg := in[v][c*b : (c+1)*b]
		if s < nodes-1 {
			for i, x := range data {
				seg[i] += x
			}
		} else {
			copy(seg, data)
		}
	}
	e.exchange(2*(nodes-1), peer, outbound, absorb, tCompute)
	return dr
}

// a2aRuns names the blocks node v exchanges across dimension k of the
// pairwise-exchange all-to-all: f(slot, i) for each of the 2^(n-k-1) runs
// of 2^k consecutive blocks, slot being the run's first block in v's
// vector and i its index among the payload's runs. The slot layout is
// closed-form: before round k, slot j of v holds the block whose
// destination agrees with j on bits >= k and whose source agrees with j
// on bits < k (every other bit of both is v's own). So the outgoing blocks
// are the slots whose bit k differs from v's, and the partner's blocks,
// packed in the same run order, land in exactly those slots. Kept blocks
// never move: the layout starts as the input (slot = destination) and
// ends as the result (slot = source).
func a2aRuns(n int, v topology.NodeID, k int, f func(slot, i int)) {
	side := (int(v) >> uint(k) & 1) ^ 1
	for h := 0; h < 1<<uint(n-k-1); h++ {
		f(h<<uint(k+1)|side<<uint(k), h)
	}
}

// AllToAll performs the complete block exchange — node v's input block t
// ends as slot v of node t's result — via the pairwise-exchange schedule
// (n rounds, N/2 blocks per message, each message one channel). Verified
// with VerifyAllToAll before returning.
func AllToAll(p ncube.Params, cube topology.Cube, in [][]float64) (DataResult, error) {
	blockOf(cube, in)
	dr := run(p, cube, func(s *ncube.Session) *DataResult { return AllToAllOn(s, cloneRows(in), nil) })
	return dr, VerifyAllToAll(dr.Data, in)
}

// AllToAllOn launches AllToAll's schedule on s, taking ownership of in
// (Data is in, permuted in place); the caller drives the calendar and
// verifies Data with VerifyAllToAll or VerifyAllToAllSeeded.
//
// The pairwise-exchange (XOR) all-to-all runs n rounds, one per dimension
// ascending, each node exchanging the N/2 blocks whose destination lies
// across the current dimension. Blocks hop between partners until
// destination bits are satisfied dimension by dimension; after round n-1
// node v holds exactly the blocks addressed to it, one from every source.
//
// It runs in place on in, with the slot layout of a2aRuns. A round's
// outgoing blocks are not contiguous and their slots are refilled as soon
// as the partner's payload is absorbed, so each node packs them into a
// send buffer it owns: N/2 blocks, allocated once per node. The buffer
// travels with the message, and the receiver adopts its partner's buffer
// as its own once it has absorbed it, so a buffer is never packed while
// any receiver still has to read it.
func AllToAllOn(s *ncube.Session, in [][]float64, done func(Result)) *DataResult {
	cube := s.Network().Cube()
	b := blockOf(cube, in)
	n := cube.Dim()
	scratch := matrix[float64](cube.Nodes(), cube.Nodes()/2*b) // each node's send buffer
	e := newEngine(s, cube.Nodes(), done)
	dr := attachData(e, func() [][]float64 { return in })
	outbound := func(v topology.NodeID, k int) (int, []float64) {
		payload, run := scratch[v], b<<uint(k)
		scratch[v] = nil
		a2aRuns(n, v, k, func(slot, i int) {
			copy(payload[i*run:(i+1)*run], in[v][slot*b:slot*b+run])
		})
		return elems(payload)
	}
	absorb := func(v topology.NodeID, k int, data []float64) {
		run := b << uint(k)
		a2aRuns(n, v, k, func(slot, i int) {
			copy(in[v][slot*b:slot*b+run], data[i*run:(i+1)*run])
		})
		scratch[v] = data
	}
	e.exchange(n, cube.Neighbor, outbound, absorb, 0)
	return dr
}

// ReduceData is the payload-carrying Reduce: the root ends with the
// elementwise sum of every node's vector (Data[root]; other nodes keep
// their partial accumulators). The root's vector is verified against the
// column sum before returning.
func ReduceData(p ncube.Params, cube topology.Cube, root topology.NodeID, in [][]float64, tCompute event.Time) (DataResult, error) {
	uniformLen(cube, in)
	dr := run(p, cube, func(s *ncube.Session) *DataResult { return ReduceDataOn(s, root, cloneRows(in), tCompute, nil) })
	return dr, VerifyData([][]float64{dr.Data[root]}, [][]float64{columnSum(in)})
}

// ReduceDataOn launches ReduceData's schedule on s, taking ownership of in
// (Data is in, accumulated in place); the caller drives the calendar and
// verifies Data[root] against the column sum.
//
// Partial vectors converge on root up Reduce's binomial tree, with
// Reduce's exact schedule and message sizes: each hop ships the sender's
// accumulated vector, and each receipt charges TRecv + tCompute before
// folding into the local accumulator. Each payload is a view of the
// sender's accumulator, which is final when sent: every child has folded
// in, and a node sends once.
func ReduceDataOn(s *ncube.Session, root topology.NodeID, in [][]float64, tCompute event.Time, done func(Result)) *DataResult {
	cube := s.Network().Cube()
	cube.MustContain(root)
	if tCompute < 0 {
		panic("collective: negative reduce compute time")
	}
	uniformLen(cube, in)
	e := newEngine(s, cube.Nodes(), done)
	dr := attachData(e, func() [][]float64 { return in })
	e.convergecast(binomialTree(cube, root), func(v topology.NodeID) (int, []float64) {
		return elems(in[v])
	}, func(v topology.NodeID, data []float64) {
		seg := in[v]
		for i, x := range data {
			seg[i] += x
		}
	}, tCompute)
	return dr
}
