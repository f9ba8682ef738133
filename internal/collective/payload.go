// Data-carrying reduction collectives: the schedules here move real
// per-node vectors through the simulated network, not just byte counts.
// A message carries only its size — the wormhole model only ever sees
// message sizes — and its receiver reads the payload straight from the
// sender's vector when it absorbs the message, so a data-carrying
// execution produces exactly the event schedule its timing-only
// counterpart would, while the final per-node vectors expose any block
// delivered to the wrong node at the wrong round. Every standalone entry
// point verifies its result against the closed-form expectation element
// by element before returning; session launches leave verification to
// the caller, who holds the inputs, and LaunchVerified is the launch that
// verifies itself.
//
// Ownership: a session launch (the ...On functions) takes ownership of
// its input vectors and runs in place on them — DataResult.Data is those
// same vectors, rewritten. A payload is a range of its sender's vector,
// read when the receiver absorbs it, not a copy: each schedule says why
// the range is not written again before then. The standalone entry points
// validate the caller's input, copy it once into one flat backing, and
// never modify it. They validate before copying because the copy takes
// its row length from the first row.
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
	return randomInto(make([]float64, nodes*elems), seed, nodes, elems)
}

// randomInto draws RandomData(seed, nodes, elems) into backing, which
// holds at least nodes*elems elements.
func randomInto(backing []float64, seed int64, nodes, elems int) [][]float64 {
	rng := seeded.Borrow(seed)
	defer seeded.Return(rng)
	out := rowsOf(backing, nodes, elems)
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

// rowsOf cuts rows consecutive capacity-clipped rows of cols elements
// from backing.
func rowsOf(backing []float64, rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for r := range out {
		out[r] = backing[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return out
}

// cloneRows is the one copy a standalone entry point makes of its
// (already validated, uniform-length) input before running in place.
func cloneRows(in [][]float64) [][]float64 {
	out := rowsOf(make([]float64, len(in)*len(in[0])), len(in), len(in[0]))
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

// columnSum is the elementwise sum over all nodes' vectors, written into
// sum (len(in[0]) elements).
func columnSum(sum []float64, in [][]float64) []float64 {
	copy(sum, in[0])
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
	return allReduceRows(columnSum(make([]float64, len(in[0])), in), len(in))
}

// allReduceRows is the allreduce expectation over a column sum: nodes
// rows, each the sum itself.
func allReduceRows(sum []float64, nodes int) [][]float64 {
	out := make([][]float64, nodes)
	for v := range out {
		out[v] = sum
	}
	return out
}

// ExpectedReduceScatter returns the analytic reduce-scatter expectation:
// node v ends with block v of the elementwise sum. The rows are read-only
// views of one column sum.
func ExpectedReduceScatter(in [][]float64) [][]float64 {
	return reduceScatterRows(columnSum(make([]float64, len(in[0])), in), len(in))
}

// reduceScatterRows is the reduce-scatter expectation over a column sum:
// row v is block v of the sum.
func reduceScatterRows(sum []float64, nodes int) [][]float64 {
	return rowsOf(sum, nodes, len(sum)/nodes)
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

// verifyAllToAllSeeded is VerifyAllToAll against the input
// RandomData(seed, nodes, len(row)), re-streamed one row at a time into
// row instead of kept — for callers whose launch consumed that input in
// place.
func verifyAllToAllSeeded(got [][]float64, seed int64, nodes int, row []float64) error {
	if err := checkShape(got, nodes, len(row)); err != nil {
		return err
	}
	rng := seeded.Borrow(seed)
	defer seeded.Return(rng)
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
// Runs in place on work. A halving payload is the sender's copy of its
// partner's half, which the sender next writes only when it absorbs the
// doubling round on the same dimension — a message the partner sends
// after absorbing that halving payload; the sender's halving and
// lower-dimension doubling writes all stay inside its own half. A
// doubling payload is the sender's fully reduced range, which its
// remaining (higher-dimension) doubling rounds never touch.
func halvingDoublingOn(s *ncube.Session, work [][]float64, tCompute event.Time, scatterOnly bool, done func(Result)) *DataResult {
	cube := s.Network().Cube()
	b := blockOf(cube, work)
	n := cube.Dim()
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
	x := newExchange(s, rounds, peer, peer, func(_ topology.NodeID, k int) int {
		return b << uint(dimOf(k)) * ElemBytes
	}, tCompute, done)
	x.absorb = func(v, u topology.NodeID, k int) {
		d := dimOf(k)
		if k < n {
			lo, hi := ownedRange(v, d) // v's half, as u held it
			seg := work[v][lo*b : hi*b]
			for i, y := range work[u][lo*b : hi*b] {
				seg[i] += y
			}
			return
		}
		lo, hi := ownedRange(u, d) // u's fully reduced range
		copy(work[v][lo*b:hi*b], work[u][lo*b:hi*b])
	}
	x.dr.Data = work
	if scatterOnly {
		x.dr.Data = make([][]float64, len(work))
		for v := range work {
			x.dr.Data[v] = work[v][v*b : (v+1)*b : (v+1)*b]
		}
	}
	return x.launch()
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
// fires when the last node finishes.
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
// Each payload is the shipped chunk of the sender's vector. A node next
// writes the chunk it shipped at step s when it absorbs step s+N-1, a
// message that leaves its predecessor only after the receiver of step s
// absorbed it and the chain of N-1 hand-offs it started came back around
// the ring.
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
	mod := func(x int) int { return ((x % nodes) + nodes) % nodes }
	// chunkSent is the chunk ring position p ships at step s.
	chunkSent := func(p, s int) int {
		if s < nodes-1 {
			return mod(p - s)
		}
		return mod(p + 1 - (s - (nodes - 1)))
	}
	next := func(v topology.NodeID, _ int) topology.NodeID { return ring[mod(pos[v]+1)] }
	prev := func(v topology.NodeID, _ int) topology.NodeID { return ring[mod(pos[v]-1)] }
	x := newExchange(s, 2*(nodes-1), next, prev, func(topology.NodeID, int) int { return b * ElemBytes }, tCompute, done)
	x.absorb = func(v, u topology.NodeID, s int) {
		c := chunkSent(pos[u], s)
		seg, data := in[v][c*b:(c+1)*b], in[u][c*b:(c+1)*b]
		if s < nodes-1 {
			for i, y := range data {
				seg[i] += y
			}
		} else {
			copy(seg, data)
		}
	}
	x.dr.Data = in
	return x.launch()
}

// a2aRuns names the blocks node v exchanges across dimension k of the
// pairwise-exchange all-to-all: f(slot) for each of the 2^(n-k-1) runs of
// 2^k consecutive blocks, slot being the run's first block in v's vector.
// The slot layout is closed-form: before round k, slot j of v holds the
// block whose destination agrees with j on bits >= k and whose source
// agrees with j on bits < k (every other bit of both is v's own). So the
// outgoing blocks are the slots whose bit k differs from v's, and the
// partner's blocks, in the same run order, belong in exactly those slots.
// Kept blocks never move: the layout starts as the input (slot =
// destination) and ends as the result (slot = source).
func a2aRuns(n int, v topology.NodeID, k int, f func(slot int)) {
	side := (int(v) >> uint(k) & 1) ^ 1
	for h := 0; h < 1<<uint(n-k-1); h++ {
		f(h<<uint(k+1) | side<<uint(k))
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
// verifies Data with VerifyAllToAll.
//
// The pairwise-exchange (XOR) all-to-all runs n rounds, one per dimension
// ascending, each node exchanging the N/2 blocks whose destination lies
// across the current dimension. Blocks hop between partners until
// destination bits are satisfied dimension by dimension; after round n-1
// node v holds exactly the blocks addressed to it, one from every source.
//
// It runs in place on in, with the slot layout of a2aRuns, and swaps
// instead of copying: when the first node of a pair (v, v^1<<k) absorbs
// round k, it swaps v's outgoing runs with the partner's, run for run.
// Both sets are untouched since each node entered round k. A node's
// vector changes only through the swaps of its own rounds, and a round-j
// swap happens at the first absorb of round j in the pair, after both
// nodes sent their round-j messages: both have sent round k, so their
// earlier swaps are done, and neither has absorbed round k, so neither
// has sent a later round. The second absorb of the pair finds the
// partner's absorbed-round counter past k and does nothing.
func AllToAllOn(s *ncube.Session, in [][]float64, done func(Result)) *DataResult {
	cube := s.Network().Cube()
	b := blockOf(cube, in)
	n := cube.Dim()
	x := newExchange(s, n, cube.Neighbor, cube.Neighbor, func(topology.NodeID, int) int {
		return cube.Nodes() / 2 * b * ElemBytes
	}, 0, done)
	x.absorb = func(v, u topology.NodeID, k int) {
		if x.round[u] > k {
			return // u absorbed round k first and swapped for both
		}
		run := b << uint(k)
		a2aRuns(n, v, k, func(slot int) {
			// u's matching outgoing run sits on the other side of bit k.
			us := slot ^ 1<<uint(k)
			vr, ur := in[v][slot*b:slot*b+run], in[u][us*b:us*b+run]
			for i := range vr {
				vr[i], ur[i] = ur[i], vr[i]
			}
		})
	}
	x.dr.Data = in
	return x.launch()
}

// ReduceData is the payload-carrying Reduce: the root ends with the
// elementwise sum of every node's vector (Data[root]; other nodes keep
// their partial accumulators). The root's vector is verified against the
// column sum before returning.
func ReduceData(p ncube.Params, cube topology.Cube, root topology.NodeID, in [][]float64, tCompute event.Time) (DataResult, error) {
	uniformLen(cube, in)
	dr := run(p, cube, func(s *ncube.Session) *DataResult { return ReduceDataOn(s, root, cloneRows(in), tCompute, nil) })
	return dr, VerifyData([][]float64{dr.Data[root]}, [][]float64{columnSum(make([]float64, len(in[0])), in)})
}

// ReduceDataOn launches ReduceData's schedule on s, taking ownership of in
// (Data is in, accumulated in place); the caller drives the calendar and
// verifies Data[root] against the column sum.
//
// Partial vectors converge on root up Reduce's binomial tree, with
// Reduce's exact schedule and message sizes: each hop ships the sender's
// accumulated vector, and each receipt charges TRecv + tCompute before
// folding into the local accumulator. Each payload is the sender's
// accumulator, which is final when sent: every child has folded in, and a
// node sends once.
func ReduceDataOn(s *ncube.Session, root topology.NodeID, in [][]float64, tCompute event.Time, done func(Result)) *DataResult {
	cube := s.Network().Cube()
	cube.MustContain(root)
	if tCompute < 0 {
		panic("collective: negative reduce compute time")
	}
	l := uniformLen(cube, in)
	c := convergecastOn(s, binomialTree(cube, root), fixedBytes(l*ElemBytes), func(v, u topology.NodeID) {
		seg := in[v]
		for i, y := range in[u] {
			seg[i] += y
		}
	}, tCompute, done)
	c.dr.Data = in
	return &c.dr
}

// DataOp names a data collective LaunchVerified runs.
type DataOp int

const (
	OpReduceScatter DataOp = iota
	OpAllReduceHD
	OpAllReduceRing
	OpAllToAll
)

// LaunchVerified launches op with zero compute time on s at the
// calendar's current time, over the input RandomData(seed, N,
// N*blockElems) drawn into the session's payload block (see
// ncube.Session.Payload), together with the scratch vector verification
// needs. At the instant the collective completes it verifies the
// delivered vectors element by element — against a column sum taken
// before the launch for the reductions, against the input re-streamed
// from its seed for the all-to-all — hands the block back, and calls done
// with the result and the verification error (nil when every element
// matched). The delivered vectors are not kept past verification.
func LaunchVerified(s *ncube.Session, op DataOp, seed int64, blockElems int, done func(Result, error)) {
	nodes := s.Network().Cube().Nodes()
	elems := nodes * blockElems
	block := s.Payload((nodes + 1) * elems)
	in, scratch := randomInto(block, seed, nodes, elems), block[nodes*elems:]
	var want [][]float64
	var dr *DataResult
	verify := func(r Result) {
		var err error
		if want != nil {
			err = VerifyData(dr.Data, want)
		} else {
			err = verifyAllToAllSeeded(dr.Data, seed, nodes, scratch)
		}
		s.ReturnPayload(block)
		done(r, err)
	}
	switch op {
	case OpReduceScatter:
		want = reduceScatterRows(columnSum(scratch, in), nodes)
		dr = ReduceScatterOn(s, in, 0, verify)
	case OpAllReduceHD:
		want = allReduceRows(columnSum(scratch, in), nodes)
		dr = AllReduceHDOn(s, in, 0, verify)
	case OpAllReduceRing:
		want = allReduceRows(columnSum(scratch, in), nodes)
		dr = AllReduceRingOn(s, in, 0, verify)
	case OpAllToAll:
		dr = AllToAllOn(s, in, verify)
	default:
		panic(fmt.Sprintf("collective: unknown data op %d", op))
	}
}
