package main

// The serve workload runs server.New(server.Config{}) behind a loopback
// TCP listener and drives it from this process over nproc connections
// with the seeded request sequence of mix.go: an open loop at the light
// rate, an open loop at the heavy rate, and a closed loop at saturation,
// each phase on a fresh server. Hits (decode, key, simcache, write,
// transport) set the median and misses (coalescing window, pool queue,
// engine) the tail; hits read the result cache and misses fill it.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hypercube/internal/metrics"
	"hypercube/internal/server"
	"hypercube/internal/stats"
)

// serveLimit is the latency limit of one request.
const serveLimit = 5 * time.Millisecond

// Share of the run's seconds each phase takes; the rest is set-up.
const (
	lightShare      = 0.25
	heavyShare      = 0.3
	saturationShare = 0.35
)

// Headers that join a server span to the client span that caused it.
const (
	spanHeader  = "X-Bench-Span"
	traceHeader = "X-Bench-Trace"
)

// bodyLedger remembers the SHA-256 of the first body seen for each
// request key; every later body for the key must hash the same. Keeping
// digests rather than bodies keeps the benchmark's own memory out of the
// process's peak RSS.
type bodyLedger struct {
	mu    sync.Mutex
	first map[string][sha256.Size]byte
}

func newLedger() *bodyLedger {
	return &bodyLedger{first: make(map[string][sha256.Size]byte)}
}

func (l *bodyLedger) check(key string, body []byte) bool {
	sum := sha256.Sum256(body)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.first[key]; ok {
		return prev == sum
	}
	l.first[key] = sum
	return true
}

// serveEnv is one fresh server and the client that loads it.
type serveEnv struct {
	srv       *server.Server
	hs        *http.Server
	served    chan struct{} // closed when Serve returns
	url       string
	transport *http.Transport
	client    *http.Client
	tr        *Tracer
	ledger    *bodyLedger
	phaseSpan int64 // parent of the client spans
}

// startServe boots a server with default configuration on a loopback
// port and opens the client's connections.
func startServe(workers int, tr *Tracer, ledger *bodyLedger) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	h := srv.Handler()
	if tr != nil {
		h = spanHandler(h, tr)
	}
	tp := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	e := &serveEnv{
		srv: srv, hs: &http.Server{Handler: h}, served: make(chan struct{}),
		url: "http://" + ln.Addr().String(), transport: tp,
		client: &http.Client{Transport: tp, Timeout: 30 * time.Second},
		tr:     tr, ledger: ledger,
	}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	// Open every connection before timing starts.
	errs := make(chan error, workers)
	for range workers {
		go func() {
			resp, err := e.client.Get(e.url + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			e.stop()
			return nil, fmt.Errorf("server not answering: %w", err)
		}
	}
	return e, nil
}

// stop closes the client's connections, shuts the listener down, waits
// for Serve to return, and drains the server's simulation pool. Closing
// the client side first matters: a connection the transport dialed but
// never used would hold Shutdown for five seconds.
func (e *serveEnv) stop() {
	e.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Drain()
}

// do sends one request and reports whether it returned 200 with the body
// first seen for its key.
func (e *serveEnv) do(r request, trace int64) bool {
	span := e.tr.Begin("client", "client.request", e.phaseSpan, trace)
	defer span.End()
	hr, err := http.NewRequest(http.MethodPost, e.url+r.path, strings.NewReader(r.body))
	if err != nil {
		return false
	}
	hr.Header.Set("Content-Type", "application/json")
	if e.tr != nil {
		hr.Header.Set(spanHeader, strconv.FormatInt(span.ID(), 10))
		hr.Header.Set(traceHeader, strconv.FormatInt(trace, 10))
	}
	resp, err := e.client.Do(hr)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && e.ledger.check(r.key(), body)
}

// spanHandler records a server-layer span around every traced request,
// named by endpoint and cache outcome (a dedup join waits like a miss).
func spanHandler(h http.Handler, tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			return
		}
		trace, _ := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
		class := "miss"
		if w.Header().Get("X-Cache") == "hit" {
			class = "hit"
		}
		tr.Record("server", "server."+strings.TrimPrefix(r.URL.Path, "/v1/")+"."+class, parent, trace, start, end)
	})
}

// openLoop sends n requests due at a fixed rate, whether or not earlier
// ones have returned, over the client's workers. Latency runs from each
// request's due time, so a stalled generator charges later requests for
// the wait; lateness is how long after its due time each was sent.
func (e *serveEnv) openLoop(plan requestPlan, rate float64, workers int) (Phase, []time.Duration) {
	n := len(plan.seq)
	interval := float64(time.Second) / rate
	units := make([]Unit, n)
	late := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				sleepUntil(due)
				late[i] = time.Since(due)
				ok := e.do(plan.at(i), int64(i)+1)
				units[i] = Unit{Seq: i, Done: time.Since(start), Latency: time.Since(due), Ops: 1, OK: ok}
			}
		}()
	}
	wg.Wait()
	return Phase{Units: units, Wall: time.Since(start)}, late
}

// sleepUntil blocks the calling thread until t. The runtime's timers
// wake up to a millisecond late on an idle process, which would be
// charged to every open-loop request; nanosleep wakes within the
// kernel's timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// saturate keeps every worker's connection busy for d, cycling through
// the plan if it runs out.
func (e *serveEnv) saturate(plan requestPlan, d time.Duration, workers int) Phase {
	return closedLoop(workers, 1, d, func(i int) Unit {
		t0 := time.Now()
		ok := e.do(plan.at(i), int64(i)+1)
		return Unit{Latency: time.Since(t0), Ops: 1, OK: ok}
	})
}

// serverCounts accumulates the registry figures of every phase's server.
type serverCounts struct {
	hits, misses, dedup, sims, shed, queueMax int64
	batchPoints, batches                      int64
	steps, acquires, blocks                   int64
}

func (c *serverCounts) add(reg *metrics.Registry) {
	c.hits += reg.Counter("simcache_hits").Value()
	c.misses += reg.Counter("simcache_misses").Value()
	c.dedup += reg.Counter("simcache_dedup_joins").Value()
	c.sims += reg.Counter("server_sims_executed").Value()
	c.shed += reg.Counter("server_jobs_shed").Value()
	c.queueMax = max(c.queueMax, reg.Gauge("server_queue_depth_max").Value())
	c.batchPoints += reg.Histogram("server_batch_points").Sum()
	c.batches += reg.Histogram("server_batch_points").Count()
	c.steps += reg.Counter("event_steps").Value()
	c.acquires += reg.Counter("net_channel_acquires").Value()
	c.blocks += reg.Counter("net_header_blocks").Value()
}

func (c *serverCounts) hitRatio() float64 {
	if n := c.hits + c.misses + c.dedup; n > 0 {
		return float64(c.hits) / float64(n)
	}
	return 0
}

// latenessUS summarizes generator lateness in microseconds.
func latenessUS(late []time.Duration) map[string]float64 {
	xs := make([]float64, len(late))
	for i, d := range late {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	q := stats.Percentiles(xs, 0.5, 0.99, 1)
	return map[string]float64{"p50": q[0], "p99": q[1], "max": q[2]}
}

// servePhases is one pass over the three phases.
type servePhases struct {
	light, heavy, sat Phase
	lightLate         []time.Duration
	heavyLate         []time.Duration
	rss               float64 // peak RSS at the end of the light phase
	counts            serverCounts
}

// phasePlans materializes each phase's request sequence: light and heavy
// send exactly their planned requests; saturation gets twice what the
// client could send at satPlanRPS and cycles if it runs out.
func phasePlans(cfg config) [3]requestPlan {
	sizes := [3]int{
		max(1000, int(cfg.lightRPS*lightShare*cfg.seconds)),
		max(1000, int(cfg.heavyRPS*heavyShare*cfg.seconds)),
		max(1000, int(2*satPlanRPS*saturationShare*cfg.seconds)),
	}
	var plans [3]requestPlan
	for phase, n := range sizes {
		plans[phase] = plan(int64(hashDraw(cfg.seed, 4, uint64(phase))>>1), n)
	}
	return plans
}

// satPlanRPS sizes the saturation plan; it is above the throughput this
// workload reaches on a 2-CPU host.
const satPlanRPS = 8000

// setupServe is the workload's set-up, repeated for a steady figure: it
// materializes the request plans and boots and connects to one server.
// Stopping those servers is teardown and stays outside the timing.
func setupServe(cfg config) (float64, [3]requestPlan, error) {
	var plans [3]requestPlan
	var booted []*serveEnv
	setup, err := timedSetup(5, func(rep int) error {
		plans = phasePlans(cfg)
		e, err := startServe(cfg.workers, nil, newLedger())
		if err == nil {
			booted = append(booted, e)
		}
		return err
	})
	for _, e := range booted {
		e.stop()
	}
	return setup, plans, err
}

func runPhases(cfg config, plans [3]requestPlan, tr *Tracer, ledger *bodyLedger) (*servePhases, error) {
	ps := &servePhases{}
	for phase := range 3 {
		// Collect the previous phase's garbage before the new one starts.
		runtime.GC()
		e, err := startServe(cfg.workers, tr, ledger)
		if err != nil {
			return nil, err
		}
		root := tr.Begin("bench", "serve.phase", 0, 0)
		e.phaseSpan = root.ID()
		switch phase {
		case 0:
			ps.light, ps.lightLate = e.openLoop(plans[0], cfg.lightRPS, cfg.workers)
			ps.rss = peakRSSMB()
		case 1:
			ps.heavy, ps.heavyLate = e.openLoop(plans[1], cfg.heavyRPS, cfg.workers)
		case 2:
			ps.sat = e.saturate(plans[2], time.Duration(saturationShare*cfg.seconds*float64(time.Second)), cfg.workers)
		}
		root.End()
		e.stop()
		ps.counts.add(e.srv.Registry())
	}
	return ps, nil
}

func (ps *servePhases) attempted() int {
	return ps.light.Attempted() + ps.heavy.Attempted() + ps.sat.Attempted()
}

func (ps *servePhases) failed() int {
	return ps.light.Failed() + ps.heavy.Failed() + ps.sat.Failed()
}

func (ps *servePhases) stamp(cfg config) map[string]any {
	return map[string]any{
		"light_rps": cfg.lightRPS, "heavy_rps": cfg.heavyRPS,
		"light_requests": len(ps.light.Units), "heavy_requests": len(ps.heavy.Units),
		"saturation_requests": len(ps.sat.Units),
		"light_lateness_us":   latenessUS(ps.lightLate),
		"heavy_lateness_us":   latenessUS(ps.heavyLate),
		"cache_hit_ratio":     ps.counts.hitRatio(),
		"slo_limit_ms":        serveLimit.Seconds() * 1e3,
	}
}

func runServe(cfg config) (*outcome, error) {
	ledger := newLedger()
	setup, plans, err := setupServe(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceServe(cfg, plans, ledger)
	}
	a0 := allocKiB()
	ps, err := runPhases(cfg, plans, nil, ledger)
	if err != nil {
		return nil, err
	}
	a1 := allocKiB()
	out := &outcome{
		attempted: ps.attempted(),
		failed:    ps.failed(),
		metrics: map[string]float64{
			"setup_s":     setup,
			"ops_per_s":   ps.sat.OpsPerSecond(),
			"peak_rss_mb": ps.rss,
		},
		stamp: ps.stamp(cfg),
	}
	out.metrics["alloc_kb_per_op"] = (a1 - a0) / float64(max(out.attempted, 1))
	latencyMetrics(out, ps.light, ps.heavy, serveLimit)
	return out, nil
}

// traceServe runs the three phases with spans on, then measures the
// tracing overhead as the wall-time difference of one fixed closed-loop
// batch sent untraced and traced, each to a fresh server.
func traceServe(cfg config, plans [3]requestPlan, ledger *bodyLedger) (*outcome, error) {
	tr := NewTracer()
	ps, err := runPhases(cfg, plans, tr, ledger)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: ps.attempted(), failed: ps.failed(), passes: 1, stamp: ps.stamp(cfg)}
	out.spans = tr.Spans()
	m := map[string]float64{}
	out.metrics = m

	byName := map[string][]float64{}
	server := map[int64]int64{} // client span ID -> handler duration
	for _, s := range out.spans {
		if s.Layer == "server" {
			byName[s.Name] = append(byName[s.Name], float64(s.Dur())/1e3)
			server[s.Parent] = s.Dur()
		}
	}
	for _, ep := range endpoints {
		for _, c := range []string{"hit", "miss"} {
			name := "server." + ep + "." + c
			m["server.handler_us."+ep+"."+c] = stats.Median(byName[name])
		}
	}
	var transport []float64
	for _, s := range out.spans {
		if h, ok := server[s.ID]; ok && s.Layer == "client" {
			transport = append(transport, float64(s.Dur()-h)/1e3)
		}
	}
	m["server.transport_us"] = stats.Median(transport)
	c := ps.counts
	m["server.queue_depth_max"] = float64(c.queueMax)
	m["server.jobs_shed"] = float64(c.shed)
	if c.misses > 0 {
		m["server.sims_per_miss"] = float64(c.sims) / float64(c.misses)
	}
	if c.batches > 0 {
		m["server.batch_points_mean"] = float64(c.batchPoints) / float64(c.batches)
	}
	m["simcache.hit_ratio"] = c.hitRatio()
	m["simcache.dedup_joins"] = float64(c.dedup)
	m["event.steps"] = float64(c.steps)
	m["wormhole.acquires"] = float64(c.acquires)
	m["wormhole.header_blocks"] = float64(c.blocks)
	if c.acquires > 0 {
		m["wormhole.blocked_ratio"] = float64(c.blocks) / float64(c.acquires)
	}
	m["client.lateness_p99_us"] = latenessUS(ps.heavyLate)["p99"]

	var untraced, traced []float64
	batch := plans[2]
	for range 3 {
		for _, t := range []*Tracer{nil, NewTracer()} {
			wall, err := fixedBatch(cfg.workers, t, batch, 1000)
			if err != nil {
				return nil, err
			}
			if t == nil {
				untraced = append(untraced, wall)
			} else {
				traced = append(traced, wall)
			}
		}
	}
	m["trace.overhead_ms"] = overheadMS(untraced, traced)
	return out, nil
}

// fixedBatch sends the first n requests of the plan over the workers'
// connections to a fresh server and returns the wall time in seconds.
func fixedBatch(workers int, tr *Tracer, plan requestPlan, n int) (float64, error) {
	e, err := startServe(workers, tr, newLedger())
	if err != nil {
		return 0, err
	}
	defer e.stop()
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				e.do(plan.at(i), int64(i)+1)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds(), nil
}
