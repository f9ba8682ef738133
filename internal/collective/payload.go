// Data-carrying reduction collectives: the schedules here move real
// per-node vectors through the simulated network, not just byte counts.
// Payloads ride in the data field of sendSpec — the wormhole model only
// ever sees message sizes — so a data-carrying execution produces exactly
// the event schedule its timing-only counterpart would, while the final
// per-node vectors expose any block delivered to the wrong node at the
// wrong round. Every standalone entry point verifies its result against
// the closed-form expectation element by element before returning;
// substrate launches leave verification to the caller, who holds the
// inputs.
//
// Ownership: a substrate launch (the ...On functions) takes ownership of
// its input vectors and runs in place on them — DataResult.Data is those
// same vectors, rewritten — and every message payload is a view of its
// sender's buffer, not a copy (see each schedule for why the viewed range
// is not written again before the receiver has absorbed it). The
// standalone entry points copy the caller's input once, into one flat
// backing, and never modify it.
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
	"hypercube/internal/topology"
	"hypercube/internal/workload"
	"hypercube/internal/wormhole"
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
	rng := workload.BorrowRand(seed)
	defer workload.ReturnRand(rng)
	out := matrix[float64](nodes, elems)
	for _, row := range out {
		fillRandom(rng, row)
	}
	return out
}

// fillRandom draws the next len(row) RandomData values from rng.
func fillRandom(rng *rand.Rand, row []float64) {
	for i := range row {
		row[i] = float64(rng.Intn(1024) - 512)
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
	rng := workload.BorrowRand(seed)
	defer workload.ReturnRand(rng)
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
// the last node finishes — before the substrate's OnDone observes the
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

// dataExchangeOn runs a payload-carrying pairwise-exchange schedule: in
// round k every node sends outbound(v, k) to its neighbor across dimension
// dimOf(k) and enters round k+1 only after both issuing its round-k send
// and absorbing its partner's round-k payload (TRecv + tCompute after the
// tail arrives). Out-of-order receipts are buffered and absorbed in round
// order, exactly mirroring exchangeRoundsOn's advancement — absorbing is
// pure data movement, so the event schedule matches a timing-only
// exchange with the same per-round byte counts.
func dataExchangeOn(e *engine, cube topology.Cube, rounds int, dimOf func(k int) int,
	outbound func(v topology.NodeID, k int) []float64,
	absorb func(v topology.NodeID, k int, data []float64),
	tCompute event.Time) {
	nodes := cube.Nodes()
	buf := matrix[[]float64](nodes, rounds) // buf[v][k]: v's round-k payload
	got := matrix[bool](nodes, rounds)
	round := make([]int, nodes) // next round not yet started
	var start func(v topology.NodeID)
	advance := func(v topology.NodeID) {
		for round[v] < rounds && got[v][round[v]] {
			k := round[v]
			absorb(v, k, buf[v][k])
			buf[v][k] = nil
			round[v]++
			if round[v] == rounds {
				e.finished(v, e.q.Now())
				return
			}
			start(v)
		}
	}
	start = func(v topology.NodeID) {
		k := round[v]
		payload := outbound(v, k)
		partner := cube.Neighbor(v, dimOf(k))
		spec := sendSpec{to: partner, bytes: len(payload) * ElemBytes, tag: k, data: payload}
		e.sendSeq(v, []sendSpec{spec}, func(s sendSpec, d wormhole.Delivery) {
			e.q.After(e.p.TRecv+tCompute, func() {
				got[d.To][s.tag] = true
				buf[d.To][s.tag] = s.data
				if s.tag == round[d.To] {
					advance(d.To)
				}
			})
		})
	}
	for v := 0; v < nodes; v++ {
		start(topology.NodeID(v))
	}
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
// Runs in place on work. Both kinds of payload are views of the sender's
// vector. A halving payload is the partner's half, which the sender next
// writes only when it absorbs the doubling round on the same dimension —
// a message the partner sends after absorbing that halving payload; the
// sender's halving and lower-dimension doubling writes all stay inside its
// own half. A doubling payload is the sender's fully reduced range, which
// its remaining (higher-dimension) doubling rounds never touch.
func halvingDoublingOn(e *engine, cube topology.Cube, work [][]float64, tCompute event.Time, scatterOnly bool) *DataResult {
	b := blockOf(cube, work)
	n := cube.Dim()
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
	outbound := func(v topology.NodeID, k int) []float64 {
		d := dimOf(k)
		var lo, hi int
		if k < n {
			lo, hi = ownedRange(cube.Neighbor(v, d), d) // partner's half
		} else {
			lo, hi = ownedRange(v, d) // v's fully-reduced range
		}
		return work[v][lo*b : hi*b]
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
	dataExchangeOn(e, cube, rounds, dimOf, outbound, absorb, tCompute)
	return dr
}

// ReduceScatter reduces the nodes' equal-length vectors elementwise and
// leaves block v of the total at node v, via the recursive-halving
// schedule (n rounds, dimension-descending, each message one channel).
// The input is one vector per node, every vector N*b elements; the result
// is verified against ExpectedReduceScatter before returning.
func ReduceScatter(p ncube.Params, cube topology.Cube, in [][]float64, tCompute event.Time) (DataResult, error) {
	if tCompute < 0 {
		panic("collective: negative reduce-scatter compute time")
	}
	e := newEngine(p, cube)
	blockOf(cube, in)
	dr := halvingDoublingOn(e, cube, cloneRows(in), tCompute, true)
	e.finish()
	return *dr, VerifyData(dr.Data, ExpectedReduceScatter(in))
}

// ReduceScatterOn launches ReduceScatter's schedule on a shared substrate
// at the calendar's current time, taking ownership of in (it runs in
// place; Data's rows are views of in). The caller drives the queue and
// verifies Data against an ExpectedReduceScatter built before the launch.
func ReduceScatterOn(sub Substrate, in [][]float64, tCompute event.Time) *DataResult {
	if tCompute < 0 {
		panic("collective: negative reduce-scatter compute time")
	}
	e := newEngineOn(sub)
	return halvingDoublingOn(e, sub.Net.Cube(), in, tCompute, true)
}

// AllReduceHD is the data-carrying halving+doubling allreduce: a
// recursive-halving reduce-scatter followed by a recursive-doubling
// allgather of the reduced blocks — 2n rounds moving 2(N-1)/N of the
// vector per node, the bandwidth-optimal hypercube schedule. Every node
// ends with the elementwise total, verified before returning.
func AllReduceHD(p ncube.Params, cube topology.Cube, in [][]float64, tCompute event.Time) (DataResult, error) {
	if tCompute < 0 {
		panic("collective: negative allreduce compute time")
	}
	e := newEngine(p, cube)
	blockOf(cube, in)
	dr := halvingDoublingOn(e, cube, cloneRows(in), tCompute, false)
	e.finish()
	return *dr, VerifyData(dr.Data, ExpectedAllReduce(in))
}

// AllReduceHDOn launches AllReduceHD's schedule on a shared substrate,
// taking ownership of in (Data is in, reduced in place); the caller drives
// the queue and verifies Data against an ExpectedAllReduce built before
// the launch.
func AllReduceHDOn(sub Substrate, in [][]float64, tCompute event.Time) *DataResult {
	if tCompute < 0 {
		panic("collective: negative allreduce compute time")
	}
	e := newEngineOn(sub)
	return halvingDoublingOn(e, sub.Net.Cube(), in, tCompute, false)
}

// allReduceRingOn runs the ring allreduce on the binary-reflected
// Gray-code Hamiltonian cycle of the cube (consecutive ring positions are
// hypercube neighbors, so every hand-off crosses one channel). Each node
// pipelines 2(N-1) single-block steps: N-1 reduce-scatter steps, in which
// step s moves chunk (p-s) mod N from ring position p to p+1 and the
// receiver folds in its contribution, then N-1 allgather steps
// circulating the finished chunks. A node issues step s+1 as soon as it
// has absorbed step s from its predecessor, so the pipeline keeps every
// ring link busy.
//
// Runs in place on work; each payload is a view of the shipped chunk. A
// node next writes the chunk it shipped at step s when it absorbs step
// s+N-1, a message that leaves its predecessor only after the receiver of
// step s absorbed it and the chain of N-1 hand-offs it started came back
// around the ring.
func allReduceRingOn(e *engine, cube topology.Cube, work [][]float64, tCompute event.Time) *DataResult {
	b := blockOf(cube, work)
	nodes := cube.Nodes()
	ring := make([]topology.NodeID, nodes) // position -> node (Gray code)
	pos := make([]int, nodes)              // node -> position
	for i := 0; i < nodes; i++ {
		g := topology.NodeID(i ^ (i >> 1))
		ring[i] = g
		pos[g] = i
	}
	dr := attachData(e, func() [][]float64 { return work })
	if nodes == 1 {
		e.finished(0, e.q.Now())
		return dr
	}
	steps := 2 * (nodes - 1)
	mod := func(x int) int { return ((x % nodes) + nodes) % nodes }
	// chunkSent is the chunk ring position p ships at step s.
	chunkSent := func(p, s int) int {
		if s < nodes-1 {
			return mod(p - s)
		}
		return mod(p + 1 - (s - (nodes - 1)))
	}
	stash := matrix[[]float64](nodes, steps) // stash[v][s]: v's step-s payload
	expect := make([]int, nodes)             // next step to absorb, in order
	var send func(v topology.NodeID, s int)
	absorb := func(v topology.NodeID, s int, data []float64) {
		p := pos[v]
		c := chunkSent(mod(p-1), s) // what the predecessor shipped
		seg := work[v][c*b : (c+1)*b]
		if s < nodes-1 {
			for i, x := range data {
				seg[i] += x
			}
		} else {
			copy(seg, data)
		}
		if s+1 < steps {
			send(v, s+1)
		}
		if s == steps-1 {
			e.finished(v, e.q.Now())
		}
	}
	drain := func(v topology.NodeID) {
		for expect[v] < steps && stash[v][expect[v]] != nil {
			s := expect[v]
			data := stash[v][s]
			stash[v][s] = nil
			expect[v]++
			absorb(v, s, data)
		}
	}
	send = func(v topology.NodeID, s int) {
		p := pos[v]
		c := chunkSent(p, s)
		payload := work[v][c*b : (c+1)*b]
		succ := ring[mod(p+1)]
		spec := sendSpec{to: succ, bytes: len(payload) * ElemBytes, tag: s, data: payload}
		e.sendSeq(v, []sendSpec{spec}, func(sp sendSpec, d wormhole.Delivery) {
			e.q.After(e.p.TRecv+tCompute, func() {
				stash[d.To][sp.tag] = sp.data
				drain(d.To)
			})
		})
	}
	for v := 0; v < nodes; v++ {
		send(topology.NodeID(v), 0)
	}
	return dr
}

// AllReduceRing is the data-carrying ring allreduce on the Gray-code
// Hamiltonian cycle: bandwidth-identical to halving+doubling (2(N-1)
// single-block steps per node) but latency-heavier — the classic
// large-vector gradient-aggregation schedule. Verified before returning.
func AllReduceRing(p ncube.Params, cube topology.Cube, in [][]float64, tCompute event.Time) (DataResult, error) {
	if tCompute < 0 {
		panic("collective: negative allreduce compute time")
	}
	e := newEngine(p, cube)
	blockOf(cube, in)
	dr := allReduceRingOn(e, cube, cloneRows(in), tCompute)
	e.finish()
	return *dr, VerifyData(dr.Data, ExpectedAllReduce(in))
}

// AllReduceRingOn launches AllReduceRing's schedule on a shared substrate,
// taking ownership of in (Data is in, reduced in place); the caller drives
// the queue and verifies Data against an ExpectedAllReduce built before
// the launch.
func AllReduceRingOn(sub Substrate, in [][]float64, tCompute event.Time) *DataResult {
	if tCompute < 0 {
		panic("collective: negative allreduce compute time")
	}
	e := newEngineOn(sub)
	return allReduceRingOn(e, sub.Net.Cube(), in, tCompute)
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

// allToAllOn runs the pairwise-exchange (XOR) all-to-all: n rounds, one
// per dimension ascending, each node exchanging the N/2 blocks whose
// destination lies across the current dimension. Blocks hop between
// partners until destination bits are satisfied dimension by dimension;
// after round n-1 node v holds exactly the blocks addressed to it, one
// from every source.
//
// Runs in place on work, with the slot layout of a2aRuns. A round's
// outgoing blocks are not contiguous and their slots are refilled as soon
// as the partner's payload is absorbed, so each node packs them into a
// send buffer it owns: N/2 blocks, allocated once per node. The buffer
// travels with the message, and the receiver adopts its partner's buffer
// as its own once it has absorbed it, so a buffer is never packed while
// any receiver still has to read it.
func allToAllOn(e *engine, cube topology.Cube, work [][]float64) *DataResult {
	b := blockOf(cube, work)
	n := cube.Dim()
	scratch := matrix[float64](cube.Nodes(), cube.Nodes()/2*b) // each node's send buffer
	dr := attachData(e, func() [][]float64 { return work })
	outbound := func(v topology.NodeID, k int) []float64 {
		payload, run := scratch[v], b<<uint(k)
		scratch[v] = nil
		a2aRuns(n, v, k, func(slot, i int) {
			copy(payload[i*run:(i+1)*run], work[v][slot*b:slot*b+run])
		})
		return payload
	}
	absorb := func(v topology.NodeID, k int, data []float64) {
		run := b << uint(k)
		a2aRuns(n, v, k, func(slot, i int) {
			copy(work[v][slot*b:slot*b+run], data[i*run:(i+1)*run])
		})
		scratch[v] = data
	}
	dataExchangeOn(e, cube, n, func(k int) int { return k }, outbound, absorb, 0)
	return dr
}

// AllToAll performs the complete block exchange — node v's input block t
// ends as slot v of node t's result — via the pairwise-exchange schedule
// (n rounds, N/2 blocks per message, each message one channel). Verified
// with VerifyAllToAll before returning.
func AllToAll(p ncube.Params, cube topology.Cube, in [][]float64) (DataResult, error) {
	e := newEngine(p, cube)
	blockOf(cube, in)
	dr := allToAllOn(e, cube, cloneRows(in))
	e.finish()
	return *dr, VerifyAllToAll(dr.Data, in)
}

// AllToAllOn launches AllToAll's schedule on a shared substrate, taking
// ownership of in (Data is in, permuted in place); the caller drives the
// queue and verifies Data with VerifyAllToAll or VerifyAllToAllSeeded.
func AllToAllOn(sub Substrate, in [][]float64) *DataResult {
	e := newEngineOn(sub)
	return allToAllOn(e, sub.Net.Cube(), in)
}

// reduceDataOn runs the payload-carrying all-to-one reduction: partial
// vectors converge on root up the dimension-ascending binomial tree
// (Reduce's exact schedule and message sizes), each hop shipping the
// sender's accumulated vector and each receipt charging TRecv + tCompute
// before folding into the local accumulator.
//
// Runs in place on acc. Each payload is a view of the sender's
// accumulator, which is final when sent: every child has folded in, and a
// node sends once.
func reduceDataOn(e *engine, cube topology.Cube, root topology.NodeID, acc [][]float64, tCompute event.Time) *DataResult {
	uniformLen(cube, acc)
	n := cube.Dim()
	dr := attachData(e, func() [][]float64 { return acc })
	pending := make([]int, cube.Nodes())
	var ready func(r topology.NodeID)
	ready = func(r topology.NodeID) {
		node := absOf(cube, root, r)
		if r == 0 {
			e.finished(node, e.q.Now())
			return
		}
		L := lowBit(r, n)
		parent := r &^ (1 << uint(L))
		spec := sendSpec{
			to:    absOf(cube, root, parent),
			bytes: len(acc[node]) * ElemBytes,
			tag:   int(r),
			data:  acc[node],
		}
		e.sendSeq(node, []sendSpec{spec}, func(s sendSpec, d wormhole.Delivery) {
			e.finished(node, d.Arrived)
			pr := relOf(cube, root, d.To)
			e.q.After(e.p.TRecv+tCompute, func() {
				seg := acc[d.To]
				for i, x := range s.data {
					seg[i] += x
				}
				pending[pr]--
				if pending[pr] == 0 {
					ready(pr)
				}
			})
		})
	}
	for v := 0; v < cube.Nodes(); v++ {
		pending[v] = lowBit(topology.NodeID(v), n)
	}
	for v := 0; v < cube.Nodes(); v++ {
		if pending[v] == 0 {
			ready(topology.NodeID(v))
		}
	}
	return dr
}

// ReduceData is the payload-carrying Reduce: the root ends with the
// elementwise sum of every node's vector (Data[root]; other nodes keep
// their partial accumulators). The root's vector is verified against the
// column sum before returning.
func ReduceData(p ncube.Params, cube topology.Cube, root topology.NodeID, in [][]float64, tCompute event.Time) (DataResult, error) {
	cube.MustContain(root)
	if tCompute < 0 {
		panic("collective: negative reduce compute time")
	}
	e := newEngine(p, cube)
	uniformLen(cube, in)
	dr := reduceDataOn(e, cube, root, cloneRows(in), tCompute)
	e.finish()
	return *dr, VerifyData([][]float64{dr.Data[root]}, [][]float64{columnSum(in)})
}

// ReduceDataOn launches ReduceData's schedule on a shared substrate,
// taking ownership of in (Data is in, accumulated in place); the caller
// drives the queue and verifies Data[root] against the column sum.
func ReduceDataOn(sub Substrate, root topology.NodeID, in [][]float64, tCompute event.Time) *DataResult {
	cube := sub.Net.Cube()
	cube.MustContain(root)
	if tCompute < 0 {
		panic("collective: negative reduce compute time")
	}
	e := newEngineOn(sub)
	return reduceDataOn(e, cube, root, in, tCompute)
}
