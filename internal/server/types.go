package server

import (
	"fmt"
	"sort"

	"hypercube/internal/collective"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/traffic"
	"hypercube/internal/vc"
)

// This file defines the JSON wire types and, crucially, their
// canonicalization. A request is normalized into one canonical form —
// defaults filled in, destination sets expanded, sorted, and deduplicated
// — before it is either keyed for the cache or executed, so two requests
// that mean the same simulation collide onto one cache entry and one
// byte-identical response, regardless of field order, destination order,
// or whether the client spelled the defaults out.

// limits is the admission policy for request shapes (as opposed to the
// worker pool, which admits by load).
type limits struct {
	maxDim         int // largest cube any endpoint simulates
	maxBytes       int // largest message/block size
	maxSweepDim    int // largest cube a sweep may cover
	maxSweepTrials int
	maxSweepPoints int
	maxTrafficOps  int   // largest traffic scenario, counted after arrival expansion
	maxDataBytes   int64 // largest synthesized payload footprint of a data-carrying collective
}

// badRequestError marks a validation failure (HTTP 400).
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return badRequestError{fmt.Sprintf(format, args...)}
}

func parseMachine(machine string, pm core.PortModel) (ncube.Params, error) {
	switch machine {
	case "ncube2":
		return ncube.NCube2(pm), nil
	case "ncube3":
		return ncube.NCube3(pm), nil
	}
	return ncube.Params{}, badf("unknown machine %q (want ncube2 or ncube3)", machine)
}

func parsePort(port string) (core.PortModel, error) {
	switch port {
	case "one-port":
		return core.OnePort, nil
	case "all-port":
		return core.AllPort, nil
	}
	return 0, badf("unknown port model %q (want one-port or all-port)", port)
}

// normalizeDests canonicalizes the (Dests | DestCount+Seed) pair with
// traffic.NormalizeDests, so a random-draw request and its explicit-set
// equivalent share a cache entry; a rejection is a 400.
func normalizeDests(cube topology.Cube, src topology.NodeID, dests []int, destCount int, seed int64) ([]int, error) {
	out, err := traffic.NormalizeDests(cube, int(src), dests, destCount, seed)
	if err != nil {
		return nil, badf("%v", err)
	}
	return out, nil
}

// normalizeLanes canonicalizes the (lanes, vc_policy) pair shared by the
// simulation endpoints and applies it to the machine params: 0 and 1 both
// mean the single-lane legacy interconnect and canonicalize to absent
// fields, so every pre-VC request keeps its cache key; vc_policy is legal
// only with lanes >= 2 and defaults to round-robin there.
func normalizeLanes(lanes *int, policy *string, p *ncube.Params) error {
	if *lanes < 0 || *lanes > vc.MaxLanes {
		return badf("lanes %d outside [0, %d]", *lanes, vc.MaxLanes)
	}
	if *lanes <= 1 {
		if *policy != "" {
			return badf("vc_policy %q needs lanes >= 2", *policy)
		}
		*lanes = 0
		return nil
	}
	if *policy == "" {
		*policy = vc.RoundRobin.String()
	}
	k, err := vc.ParseKind(*policy)
	if err != nil {
		return badf("%v", err)
	}
	p.Lanes, p.VCPolicy = *lanes, k
	return nil
}

func toNodeIDs(xs []int) []topology.NodeID {
	out := make([]topology.NodeID, len(xs))
	for i, x := range xs {
		out[i] = topology.NodeID(x)
	}
	return out
}

// SimulateRequest asks for one multicast execution on the simulated
// machine (POST /v1/simulate). Destinations are a set: give them
// explicitly in dests, or as dest_count+seed for a deterministic random
// draw (the paper's randomized workloads).
type SimulateRequest struct {
	Dim       int    `json:"dim"`
	Algorithm string `json:"algorithm"`
	Machine   string `json:"machine,omitempty"` // ncube2 (default) | ncube3
	Port      string `json:"port,omitempty"`    // all-port (default) | one-port
	Src       int    `json:"src"`
	Dests     []int  `json:"dests,omitempty"`
	DestCount int    `json:"dest_count,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Bytes     int    `json:"bytes,omitempty"` // default 4096
	// Lanes is the virtual-channel count per directed arc (0/1: legacy
	// single-lane); VCPolicy (round-robin | lowest-occupancy | escape)
	// requires lanes >= 2.
	Lanes    int    `json:"lanes,omitempty"`
	VCPolicy string `json:"vc_policy,omitempty"`
}

// normalize validates r against lim and rewrites it into canonical form.
// It returns the derived execution inputs alongside.
func (r *SimulateRequest) normalize(lim limits) (topology.Cube, ncube.Params, core.Algorithm, error) {
	if r.Dim < 1 || r.Dim > lim.maxDim {
		return topology.Cube{}, ncube.Params{}, 0, badf("dim %d outside [1, %d]", r.Dim, lim.maxDim)
	}
	if r.Machine == "" {
		r.Machine = "ncube2"
	}
	if r.Port == "" {
		r.Port = "all-port"
	}
	if r.Bytes == 0 {
		r.Bytes = 4096
	}
	if r.Bytes < 1 || r.Bytes > lim.maxBytes {
		return topology.Cube{}, ncube.Params{}, 0, badf("bytes %d outside [1, %d]", r.Bytes, lim.maxBytes)
	}
	alg, err := core.ParseAlgorithm(r.Algorithm)
	if err != nil {
		return topology.Cube{}, ncube.Params{}, 0, badf("%v", err)
	}
	pm, err := parsePort(r.Port)
	if err != nil {
		return topology.Cube{}, ncube.Params{}, 0, err
	}
	p, err := parseMachine(r.Machine, pm)
	if err != nil {
		return topology.Cube{}, ncube.Params{}, 0, err
	}
	if err := normalizeLanes(&r.Lanes, &r.VCPolicy, &p); err != nil {
		return topology.Cube{}, ncube.Params{}, 0, err
	}
	if err := p.Err(); err != nil {
		return topology.Cube{}, ncube.Params{}, 0, badf("%v", err)
	}
	cube := topology.New(r.Dim, topology.HighToLow)
	if r.Src < 0 || r.Src >= cube.Nodes() {
		return topology.Cube{}, ncube.Params{}, 0, badf("src %d outside the %d-node cube", r.Src, cube.Nodes())
	}
	dests, err := normalizeDests(cube, topology.NodeID(r.Src), r.Dests, r.DestCount, r.Seed)
	if err != nil {
		return topology.Cube{}, ncube.Params{}, 0, err
	}
	r.Dests, r.DestCount, r.Seed = dests, 0, 0
	return cube, p, alg, nil
}

// NodeTime is one node's simulated completion time.
type NodeTime struct {
	Node   int   `json:"node"`
	TimeNS int64 `json:"time_ns"`
}

func sortedNodeTimes(m map[topology.NodeID]event.Time) []NodeTime {
	out := make([]NodeTime, 0, len(m))
	for v, t := range m {
		out = append(out, NodeTime{Node: int(v), TimeNS: int64(t)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// SimulateResponse reports one simulated multicast. The canonical request
// is echoed back so a cached body is self-describing.
type SimulateResponse struct {
	Request        SimulateRequest `json:"request"`
	MakespanNS     int64           `json:"makespan_ns"`
	MakespanUS     float64         `json:"makespan_us"`
	TotalBlockedNS int64           `json:"total_blocked_ns"`
	Recv           []NodeTime      `json:"recv"`
}

// FaultTolerantRequest runs the fault-tolerant distributed multicast under
// an injected fault scenario (POST /v1/simulate/fault-tolerant).
type FaultTolerantRequest struct {
	SimulateRequest
	// LinkFaults draws this many distinct permanent link faults
	// deterministically from fault_seed.
	LinkFaults int   `json:"link_faults,omitempty"`
	FaultSeed  int64 `json:"fault_seed,omitempty"`
	// FaultMode is drop (default: fail-fast links) or stall (wedged
	// channels — the watchdog-shaped failure).
	FaultMode string `json:"fault_mode,omitempty"`
	// DropRate / TruncateRate are per-message loss probabilities in [0, 1).
	DropRate     float64 `json:"drop_rate,omitempty"`
	TruncateRate float64 `json:"truncate_rate,omitempty"`
	// MaxSimSteps / MaxSimTimeUS tighten the per-request watchdog below
	// the server's budget (0 keeps the server default).
	MaxSimSteps  int   `json:"max_sim_steps,omitempty"`
	MaxSimTimeUS int64 `json:"max_sim_time_us,omitempty"`
}

func (r *FaultTolerantRequest) normalize(lim limits) (topology.Cube, ncube.Params, core.Algorithm, faults.Plan, error) {
	cube, p, alg, err := r.SimulateRequest.normalize(lim)
	if err != nil {
		return topology.Cube{}, ncube.Params{}, 0, faults.Plan{}, err
	}
	if r.FaultMode == "" {
		r.FaultMode = "drop"
	}
	var mode faults.Mode
	switch r.FaultMode {
	case "drop":
		mode = faults.Drop
	case "stall":
		mode = faults.Stall
	default:
		return topology.Cube{}, ncube.Params{}, 0, faults.Plan{}, badf("unknown fault_mode %q (want drop or stall)", r.FaultMode)
	}
	if r.LinkFaults < 0 {
		return topology.Cube{}, ncube.Params{}, 0, faults.Plan{}, badf("negative link_faults %d", r.LinkFaults)
	}
	if r.MaxSimSteps < 0 || r.MaxSimTimeUS < 0 {
		return topology.Cube{}, ncube.Params{}, 0, faults.Plan{}, badf("negative watchdog budget (max_sim_steps=%d max_sim_time_us=%d)", r.MaxSimSteps, r.MaxSimTimeUS)
	}
	plan := faults.Plan{
		Seed:         r.FaultSeed,
		Mode:         mode,
		Links:        faults.RandomLinks(cube, r.FaultSeed, r.LinkFaults),
		DropRate:     r.DropRate,
		TruncateRate: r.TruncateRate,
	}
	if err := plan.ErrOn(cube); err != nil {
		return topology.Cube{}, ncube.Params{}, 0, faults.Plan{}, badf("%v", err)
	}
	return cube, p, alg, plan, nil
}

// NodeStatus is one destination's delivery outcome.
type NodeStatus struct {
	Node   int    `json:"node"`
	Status string `json:"status"`
}

// FaultTolerantResponse reports a fault-tolerant multicast: per-destination
// outcomes plus the protocol's retry/repair effort.
type FaultTolerantResponse struct {
	Request        FaultTolerantRequest `json:"request"`
	MakespanNS     int64                `json:"makespan_ns"`
	MakespanUS     float64              `json:"makespan_us"`
	TotalBlockedNS int64                `json:"total_blocked_ns"`
	Delivered      int                  `json:"delivered"`
	Retries        int                  `json:"retries"`
	Repairs        int                  `json:"repairs"`
	Status         []NodeStatus         `json:"status"`
}

// CollectiveRequest runs one MPI-style collective over the whole cube
// (POST /v1/collective).
type CollectiveRequest struct {
	// Op is scatter, gather, reduce, barrier, allgather, allreduce,
	// reduce-scatter, or alltoall. The last two — and allreduce when a
	// variant is named — are data-carrying: the server synthesizes seeded
	// per-node payload vectors, threads them through the wormhole
	// schedule, and verifies the delivered data against the analytic
	// expectation (the response reports data_verified).
	Op      string `json:"op"`
	Dim     int    `json:"dim"`
	Machine string `json:"machine,omitempty"`
	Port    string `json:"port,omitempty"`
	// Root is the distinguished node of scatter/gather/reduce (ignored
	// by the all-to-all operations and barrier).
	Root int `json:"root,omitempty"`
	// Bytes is the per-block payload (default 1024; barrier ignores it).
	Bytes int `json:"bytes,omitempty"`
	// TComputeNS is the per-merge combining cost of reduce/allreduce/
	// reduce-scatter.
	TComputeNS int64 `json:"t_compute_ns,omitempty"`
	// Variant selects the allreduce schedule: empty keeps the timing-only
	// butterfly (the pre-payload behavior, so existing cached bodies are
	// untouched), hd runs the data-carrying halving+doubling, ring the
	// data-carrying Gray-code ring pipeline.
	Variant string `json:"variant,omitempty"`
	// Seed seeds a data-carrying op's synthesized payload vectors.
	Seed int64 `json:"seed,omitempty"`
	// IncludeFinish adds every node's completion time to the response
	// (verbose on large cubes).
	IncludeFinish bool `json:"include_finish,omitempty"`
	// Lanes is the virtual-channel count per directed arc (0/1: legacy
	// single-lane); VCPolicy (round-robin | lowest-occupancy | escape)
	// requires lanes >= 2.
	Lanes    int    `json:"lanes,omitempty"`
	VCPolicy string `json:"vc_policy,omitempty"`
}

var collectiveOps = map[string]bool{
	"scatter": true, "gather": true, "reduce": true,
	"barrier": true, "allgather": true, "allreduce": true,
	"reduce-scatter": true, "alltoall": true,
}

// dataCarrying reports whether the normalized request runs a payload
// schedule (and so fills data_verified in the response).
func (r *CollectiveRequest) dataCarrying() bool {
	switch r.Op {
	case "reduce-scatter", "alltoall":
		return true
	case "allreduce":
		return r.Variant != ""
	}
	return false
}

func (r *CollectiveRequest) normalize(lim limits) (topology.Cube, ncube.Params, error) {
	if !collectiveOps[r.Op] {
		return topology.Cube{}, ncube.Params{}, badf("unknown op %q (want scatter, gather, reduce, barrier, allgather, allreduce, reduce-scatter, or alltoall)", r.Op)
	}
	if r.Variant != "" {
		if r.Op != "allreduce" {
			return topology.Cube{}, ncube.Params{}, badf("variant applies only to allreduce")
		}
		if r.Variant != "hd" && r.Variant != "ring" {
			return topology.Cube{}, ncube.Params{}, badf("unknown allreduce variant %q (want hd or ring)", r.Variant)
		}
	}
	if r.Seed != 0 && !r.dataCarrying() {
		return topology.Cube{}, ncube.Params{}, badf("seed applies only to the data-carrying ops (reduce-scatter, alltoall, allreduce with a variant)")
	}
	if r.Dim < 1 || r.Dim > lim.maxDim {
		return topology.Cube{}, ncube.Params{}, badf("dim %d outside [1, %d]", r.Dim, lim.maxDim)
	}
	if r.Machine == "" {
		r.Machine = "ncube2"
	}
	if r.Port == "" {
		r.Port = "all-port"
	}
	if r.Bytes == 0 {
		r.Bytes = 1024
	}
	if r.Op == "barrier" {
		r.Bytes = 0 // canonical: barrier carries no payload
	}
	if r.Bytes < 0 || r.Bytes > lim.maxBytes {
		return topology.Cube{}, ncube.Params{}, badf("bytes %d outside [0, %d]", r.Bytes, lim.maxBytes)
	}
	if r.TComputeNS < 0 {
		return topology.Cube{}, ncube.Params{}, badf("negative t_compute_ns %d", r.TComputeNS)
	}
	if r.Op == "alltoall" && r.TComputeNS != 0 {
		return topology.Cube{}, ncube.Params{}, badf("alltoall has no combining step (drop t_compute_ns)")
	}
	switch r.Op {
	case "barrier", "allgather", "allreduce", "reduce-scatter", "alltoall":
		r.Root = 0 // canonical: rootless operations
	}
	pm, err := parsePort(r.Port)
	if err != nil {
		return topology.Cube{}, ncube.Params{}, err
	}
	p, err := parseMachine(r.Machine, pm)
	if err != nil {
		return topology.Cube{}, ncube.Params{}, err
	}
	if err := normalizeLanes(&r.Lanes, &r.VCPolicy, &p); err != nil {
		return topology.Cube{}, ncube.Params{}, err
	}
	if err := p.Err(); err != nil {
		return topology.Cube{}, ncube.Params{}, badf("%v", err)
	}
	cube := topology.New(r.Dim, topology.HighToLow)
	if r.Root < 0 || r.Root >= cube.Nodes() {
		return topology.Cube{}, ncube.Params{}, badf("root %d outside the %d-node cube", r.Root, cube.Nodes())
	}
	if r.dataCarrying() {
		be := int64(r.Bytes) / collective.ElemBytes
		if be < 1 {
			be = 1
		}
		n := int64(cube.Nodes())
		if total := n * n * be * collective.ElemBytes; total > lim.maxDataBytes {
			return topology.Cube{}, ncube.Params{}, badf("payload footprint %d bytes (%d nodes x %d blocks x %d bytes) exceeds the limit of %d",
				total, n, n, be*collective.ElemBytes, lim.maxDataBytes)
		}
	}
	return cube, p, nil
}

// CollectiveResponse reports one collective execution.
type CollectiveResponse struct {
	Request        CollectiveRequest `json:"request"`
	MakespanNS     int64             `json:"makespan_ns"`
	MakespanUS     float64           `json:"makespan_us"`
	Messages       int               `json:"messages"`
	TotalBlockedNS int64             `json:"total_blocked_ns"`
	// DataVerified reports that a data-carrying op's delivered payload
	// vectors matched the analytic expectation; omitted for the
	// timing-only ops, whose cached bodies stay byte-identical.
	DataVerified bool       `json:"data_verified,omitempty"`
	Finish       []NodeTime `json:"finish,omitempty"`
}

// TreeRequest builds a multicast tree and analyzes it without simulating
// the machine (POST /v1/tree): structural metrics, the stepwise schedule,
// and the paper's Definition 4 contention check.
type TreeRequest struct {
	Dim       int    `json:"dim"`
	Algorithm string `json:"algorithm"`
	Port      string `json:"port,omitempty"`
	Src       int    `json:"src"`
	Dests     []int  `json:"dests,omitempty"`
	DestCount int    `json:"dest_count,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
}

func (r *TreeRequest) normalize(lim limits) (topology.Cube, core.Algorithm, core.PortModel, error) {
	if r.Dim < 1 || r.Dim > lim.maxDim {
		return topology.Cube{}, 0, 0, badf("dim %d outside [1, %d]", r.Dim, lim.maxDim)
	}
	if r.Port == "" {
		r.Port = "all-port"
	}
	alg, err := core.ParseAlgorithm(r.Algorithm)
	if err != nil {
		return topology.Cube{}, 0, 0, badf("%v", err)
	}
	pm, err := parsePort(r.Port)
	if err != nil {
		return topology.Cube{}, 0, 0, err
	}
	cube := topology.New(r.Dim, topology.HighToLow)
	if r.Src < 0 || r.Src >= cube.Nodes() {
		return topology.Cube{}, 0, 0, badf("src %d outside the %d-node cube", r.Src, cube.Nodes())
	}
	dests, err := normalizeDests(cube, topology.NodeID(r.Src), r.Dests, r.DestCount, r.Seed)
	if err != nil {
		return topology.Cube{}, 0, 0, err
	}
	r.Dests, r.DestCount, r.Seed = dests, 0, 0
	return cube, alg, pm, nil
}

// TreeResponse reports a tree's structure, schedule, and contention.
type TreeResponse struct {
	Request        TreeRequest `json:"request"`
	Unicasts       int         `json:"unicasts"`
	Height         int         `json:"height"`
	TotalHops      int         `json:"total_hops"`
	MaxOutDegree   int         `json:"max_out_degree"`
	ChannelReuses  int         `json:"channel_reuses"`
	Relays         int         `json:"relays"`
	Steps          int         `json:"steps"`
	StepLowerBound int         `json:"step_lower_bound"`
	Contentions    int         `json:"contentions"`
	// ContentionSample renders at most the first 8 violating pairs.
	ContentionSample []string `json:"contention_sample,omitempty"`
}

// SweepRequest runs a small parameter sweep (POST /v1/sweep) — the paper's
// Figure 9–14 experiments at service-sized fidelities.
type SweepRequest struct {
	// Kind is stepwise (Figures 9–10) or delay (Figures 11–14).
	Kind       string   `json:"kind"`
	Dim        int      `json:"dim"`
	Trials     int      `json:"trials,omitempty"`
	Points     int      `json:"points,omitempty"`
	Algorithms []string `json:"algorithms,omitempty"`
	// Stat is max (default) or avg.
	Stat    string `json:"stat,omitempty"`
	Machine string `json:"machine,omitempty"` // delay sweeps only
	Port    string `json:"port,omitempty"`
	Bytes   int    `json:"bytes,omitempty"` // delay sweeps only
	Seed    int64  `json:"seed,omitempty"`
}

func (r *SweepRequest) normalize(lim limits) error {
	switch r.Kind {
	case "stepwise", "delay":
	default:
		return badf("unknown sweep kind %q (want stepwise or delay)", r.Kind)
	}
	if r.Dim < 1 || r.Dim > lim.maxSweepDim {
		return badf("sweep dim %d outside [1, %d]", r.Dim, lim.maxSweepDim)
	}
	if r.Trials == 0 {
		r.Trials = 10
	}
	if r.Trials < 1 || r.Trials > lim.maxSweepTrials {
		return badf("trials %d outside [1, %d]", r.Trials, lim.maxSweepTrials)
	}
	if r.Points == 0 {
		r.Points = 8
	}
	if r.Points < 2 || r.Points > lim.maxSweepPoints {
		return badf("points %d outside [2, %d]", r.Points, lim.maxSweepPoints)
	}
	if len(r.Algorithms) == 0 {
		r.Algorithms = []string{"u-cube", "maxport", "combine", "w-sort"}
	}
	for _, a := range r.Algorithms {
		if _, err := core.ParseAlgorithm(a); err != nil {
			return badf("%v", err)
		}
	}
	if r.Stat == "" {
		r.Stat = "max"
	}
	if r.Stat != "max" && r.Stat != "avg" {
		return badf("unknown stat %q (want max or avg)", r.Stat)
	}
	if r.Machine == "" {
		r.Machine = "ncube2"
	}
	if _, err := parseMachine(r.Machine, core.AllPort); err != nil {
		return err
	}
	if r.Port == "" {
		r.Port = "all-port"
	}
	if _, err := parsePort(r.Port); err != nil {
		return err
	}
	if r.Bytes == 0 {
		r.Bytes = 4096
	}
	if r.Bytes < 1 || r.Bytes > lim.maxBytes {
		return badf("bytes %d outside [1, %d]", r.Bytes, lim.maxBytes)
	}
	return nil
}

// SweepRow is one x-axis point of a sweep table.
type SweepRow struct {
	X     float64   `json:"x"`
	Cells []float64 `json:"cells"`
}

// SweepResponse reports a sweep as a column-labeled table, mirroring
// stats.Table.
type SweepResponse struct {
	Request SweepRequest `json:"request"`
	Title   string       `json:"title"`
	XLabel  string       `json:"x_label"`
	Columns []string     `json:"columns"`
	Rows    []SweepRow   `json:"rows"`
}

// TrafficRequest runs one trace-driven traffic scenario — concurrent
// collectives on a single shared network (POST /v1/traffic). The body is
// exactly a traffic scenario spec; see internal/traffic for the schema.
// Canonicalization (defaults, generator expansion, dest draws) happens
// here, so a Poisson spec and its expanded explicit equivalent share one
// cache entry.
type TrafficRequest struct {
	traffic.Spec
}

func (r *TrafficRequest) normalize(lim limits) error {
	err := r.Spec.Canonicalize(traffic.Limits{
		MaxDim:       lim.maxDim,
		MaxBytes:     lim.maxBytes,
		MaxOps:       lim.maxTrafficOps,
		MaxDataBytes: lim.maxDataBytes,
	})
	if err != nil {
		return badf("%v", err)
	}
	return nil
}

// TrafficResponse reports one traffic scenario: per-op queueing and
// completion times plus shared-network saturation statistics.
type TrafficResponse struct {
	Request    TrafficRequest     `json:"request"`
	MakespanNS int64              `json:"makespan_ns"`
	MakespanUS float64            `json:"makespan_us"`
	Ops        []traffic.OpResult `json:"ops"`
	Net        traffic.NetStats   `json:"net"`
}

// ErrorResponse is the structured error body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is bad_request, queue_full, draining, deadline, watchdog, or
	// internal.
	Code string `json:"code"`
	// Watchdog carries the event-loop diagnostic when Code is watchdog.
	Watchdog *WatchdogInfo `json:"watchdog,omitempty"`
}

// WatchdogInfo mirrors event.Diagnostic for the wire.
type WatchdogInfo struct {
	Reason  string `json:"reason"`
	Steps   int    `json:"steps"`
	NowNS   int64  `json:"now_ns"`
	Pending int    `json:"pending"`
	Detail  string `json:"detail,omitempty"`
}
