package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/core"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/invariant"
	"olympian/internal/llm"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/profiler"
	"olympian/internal/workload"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-7dnn", "fleet-poisson", "llm-overload"}

// scale sizes one simulated run. full is what the benchmark measures; the
// smoke tests use small.
type scale struct {
	batches     int // paper-7dnn: batches per closed-loop client
	fleetReqs   int // fleet-poisson: open-loop arrivals
	llmRequests int // llm-overload: open-loop arrivals
}

var (
	full  = scale{batches: 2, fleetReqs: 60_000, llmRequests: 4_000}
	small = scale{batches: 1, fleetReqs: 2_000, llmRequests: 300}
)

// sample is one simulated run of one workload, measured from outside the
// program: host-clock figures vary from run to run, sim figures are
// deterministic per seed.
type sample struct {
	// Host holds host-clock measurements: setup_s, setup.profile_s,
	// setup.build_s, run_s, alloc_mb, retained_mb and, when traced,
	// cluster.submit_ns_p50/p99.
	Host map[string]float64 `json:"host"`
	// Sim holds the deterministic simulated results and counts.
	Sim map[string]float64 `json:"sim"`
	// Settled counts simulated requests (batches on paper-7dnn) that
	// reached a terminal state; req_per_s is Settled / run_s.
	Settled int `json:"settled"`
	// Hash fingerprints Sim and the router decision hash.
	Hash string `json:"hash"`
	// Violations lists every failed correctness check of the run.
	Violations []string `json:"violations"`
	// CPU counts profile samples per layer bucket (traced runs only).
	CPU map[string]int64 `json:"cpu,omitempty"`
}

// probe carries the tracing of one run: when traced, a CPU profile of the
// run phase and the host time of each SubmitEvent call.
type probe struct {
	traced bool
	cpu    bytes.Buffer
	submit []time.Duration
}

// timeSubmit runs one SubmitEvent call, timing it when traced.
func (pr *probe) timeSubmit(f func() error) error {
	if !pr.traced {
		return f()
	}
	t0 := time.Now()
	err := f()
	pr.submit = append(pr.submit, time.Since(t0))
	return err
}

// runPhase measures the run phase: host time, bytes allocated and the live
// heap left after a GC while keep is still reachable.
func runPhase(s *sample, pr *probe, run func() error, keep func() any) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if pr.traced {
		if err := pprof.StartCPUProfile(&pr.cpu); err != nil {
			return err
		}
	}
	t0 := time.Now()
	err := run()
	s.Host["run_s"] = time.Since(t0).Seconds()
	if pr.traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	s.Host["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.Host["retained_mb"] = float64(after.HeapAlloc) / 1e6
	runtime.KeepAlive(keep())
	if pr.traced && len(pr.submit) > 0 {
		ns := make([]float64, len(pr.submit))
		for i, d := range pr.submit {
			ns[i] = float64(d.Nanoseconds())
		}
		p := metrics.PercentilesOf(ns)
		s.Host["cluster.submit_ns_p50"] = p.P50
		s.Host["cluster.submit_ns_p99"] = p.P99
	}
	return err
}

func newSample() *sample {
	return &sample{Host: map[string]float64{}, Sim: map[string]float64{}}
}

// setupRepeats is how often a fleet is constructed per run; the last one
// serves the run. Fleet construction touches no process-wide memo cache, so
// each construction is as cold as a fresh run's, and the median of several
// steadies a sub-millisecond timing.
const setupRepeats = 5

// setupRepeated times setupRepeats calls of build and records their median
// as setup_s and setup.build_s.
func setupRepeated(s *sample, build func() error) error {
	times := make([]float64, setupRepeats)
	for i := range times {
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		times[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(times)
	s.Host["setup_s"] = times[len(times)/2]
	s.Host["setup.build_s"] = s.Host["setup_s"]
	return nil
}

// runWorkload performs one set-up and run of the named workload at seed.
// Every input is generated from seed before any part of the system is built.
func runWorkload(name string, seed int64, sc scale, pr *probe) (*sample, error) {
	switch name {
	case "paper-7dnn":
		return runPaper(seed, sc, pr)
	case "fleet-poisson":
		return runFleet(seed, sc, pr)
	case "llm-overload":
		return runLLM(seed, sc, pr)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// paperQuantum is the paper's Q for the 7-DNN, 14-client mix (Fig. 16).
const paperQuantum = 1620 * time.Microsecond

// runPaper drives the paper's Fig. 16 mix: two closed-loop clients per
// Table-2 DNN at the paper's batch sizes, Olympian fair scheduling with
// Q = 1620µs on one GTX 1080 Ti. The seed staggers client start times within
// the first millisecond and seeds execution jitter and profiling.
func runPaper(seed int64, sc scale, pr *probe) (*sample, error) {
	rng := rand.New(rand.NewSource(seed))
	var clients []workload.ClientSpec
	var refs []workload.ModelRef
	for _, e := range model.Table2() {
		for k := 0; k < 2; k++ {
			c := workload.ClientSpec{
				Model:    e.Model,
				Batch:    e.Batch,
				Batches:  sc.batches,
				ArriveAt: time.Duration(rng.Int63n(int64(time.Millisecond))),
			}
			clients = append(clients, c)
			refs = append(refs, c.Ref())
		}
	}

	// Set-up builds each model graph (memoized per process, so this run's
	// process is the first to pay it), then profiles each one offline.
	s := newSample()
	t0 := time.Now()
	for _, r := range refs {
		if _, err := model.Build(r.Model, r.Batch); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	store := profiler.NewStore()
	if err := workload.Profile(store, refs, gpu.GTX1080Ti, seed+900); err != nil {
		return nil, err
	}
	s.Host["setup.build_s"] = t1.Sub(t0).Seconds()
	s.Host["setup.profile_s"] = time.Since(t1).Seconds()
	s.Host["setup_s"] = time.Since(t0).Seconds()
	cfg := workload.Config{
		Seed:     seed,
		Kind:     workload.Olympian,
		Policy:   core.NewFair(),
		Quantum:  paperQuantum,
		Profiles: store,
	}

	var res *workload.Result
	err := runPhase(s, pr, func() error {
		var err error
		res, err = workload.Run(cfg, clients)
		return err
	}, func() any { return res })
	if err != nil {
		return nil, err
	}

	// Correctness: every client finished every batch and none failed.
	total := len(clients) * sc.batches
	failed := res.Degraded.BatchFailures
	if n := len(res.FailedClients); n > 0 {
		s.Violations = append(s.Violations, fmt.Sprintf("%d clients failed admission", n))
	}
	if n := len(res.Finishes.Records); n != len(clients) {
		s.Violations = append(s.Violations, fmt.Sprintf("%d of %d clients finished", n, len(clients)))
	}
	if failed > 0 {
		s.Violations = append(s.Violations, fmt.Sprintf("%d batches failed", failed))
	}
	s.Settled = total

	// Per-client mean batch latency, from its first arrival to its finish.
	var lat []float64
	for _, r := range res.Finishes.Records {
		c := clients[r.Client]
		lat = append(lat, (r.Finish-c.ArriveAt).Seconds()/float64(c.Batches))
	}
	p := metrics.PercentilesOf(lat)
	makespan := res.Elapsed.Seconds()

	sim := s.Sim
	sim["ok_frac"] = float64(total-failed) / float64(total)
	sim["sim_makespan_s"] = makespan
	sim["sim_goodput"] = float64(total-failed) / makespan
	sim["sim_lat_p50_ms"] = p.P50 * 1e3
	sim["sim_lat_p99_ms"] = p.P99 * 1e3
	sim["sim_lat_n"] = float64(p.N)
	sim["gpu.kernels"] = float64(res.Device.KernelsRun)
	sim["gpu.busy_frac"] = res.Utilization
	sim["gpu.queue_peak"] = float64(res.Device.QueuePeak)
	sim["core.switches"] = float64(res.Switches)
	dev, mean, relstd := quantumStats(res.Quanta, len(clients), paperQuantum)
	sim["quantum_dev"] = dev
	sim["core.quantum_mean_us"] = mean
	sim["core.quantum_relstd"] = relstd
	sim["executor.pool_delayed"] = float64(res.Pool.Delayed)
	s.Hash = fingerprint(sim, 0)
	return s, nil
}

// quantumStats reads the paper's Fig. 16 figures off the quanta granted
// while every client contended: the worst client's deviation of mean GPU
// time per quantum from Q, the mean GPU time per quantum in µs, and the worst
// client's relative standard deviation of it.
func quantumStats(quanta []core.QuantumRecord, clients int, q time.Duration) (dev, meanUS, relstd float64) {
	per := map[int][]float64{}
	var all []float64
	for _, r := range quanta {
		if r.ActiveJobs < clients {
			continue
		}
		us := float64(r.GPUDuration) / float64(time.Microsecond)
		per[r.Client] = append(per[r.Client], us)
		all = append(all, us)
	}
	qUS := float64(q) / float64(time.Microsecond)
	for _, xs := range per {
		s := metrics.Summarize(xs)
		dev = max(dev, math.Abs(s.Mean/qUS-1))
		relstd = max(relstd, s.RelStd())
	}
	return dev, metrics.Summarize(all).Mean, relstd
}

// Fleet-poisson sizing: micro-model batches of up to 8 on 8 devices, each
// device crashing and restarting up to twice.
const (
	fleetDevices  = 8
	fleetMaxBatch = 8
	// fleetRate is the fleet-wide arrival rate, 70% of the ~500k req/s the
	// 8-device micro fleet completes at saturation with batches of 8.
	fleetRate      = 350_000.0
	fleetBatchFrac = 0.3
)

// runFleet drives open-loop Poisson arrivals of the micro model into an
// 8-device sharded fleet in slim mode, each device with a seeded
// crash-with-restart fault plan.
func runFleet(seed int64, sc scale, pr *probe) (*sample, error) {
	rng := rand.New(rand.NewSource(seed))
	type arrival struct {
		at    time.Duration
		class overload.Class
	}
	arrivals := make([]arrival, sc.fleetReqs)
	at := time.Duration(0)
	for i := range arrivals {
		at += time.Duration(rng.ExpFloat64() / fleetRate * float64(time.Second))
		class := overload.Interactive
		if rng.Float64() < fleetBatchFrac {
			class = overload.Batch
		}
		arrivals[i] = arrival{at: at, class: class}
	}
	// Each device crashes twice, once in each half of the arrival window,
	// and restarts after a fixed delay, so every crash and revive lands
	// while traffic flows.
	horizon := at
	plans := make([]*faults.Plan, fleetDevices)
	devices := make([]gpu.Spec, fleetDevices)
	for i := range plans {
		plan := &faults.Plan{}
		for half := 0; half < 2; half++ {
			from := (0.1 + 0.45*float64(half) + 0.3*rng.Float64()) * float64(horizon)
			plan.Crashes = append(plan.Crashes, faults.CrashEvent{
				At:       time.Duration(from),
				Recovery: horizon / 200,
			})
		}
		plans[i] = plan
		devices[i] = gpu.GTX1080Ti
	}

	s := newSample()
	var c *cluster.ShardedCluster
	err := setupRepeated(s, func() (err error) {
		c, err = cluster.NewSharded(cluster.Config{
			Seed:         seed,
			Devices:      devices,
			Faults:       plans,
			Route:        cluster.LeastOutstanding,
			MaxBatch:     fleetMaxBatch,
			BatchTimeout: 2 * time.Millisecond,
			Workers:      runtime.NumCPU(),
			Slim:         true,
		}, cluster.Sharded)
		return err
	})
	if err != nil {
		return nil, err
	}

	rejected := 0 // arrivals the router refused because no replica was up
	err = runPhase(s, pr, func() error {
		env := c.FrontEnv()
		for _, a := range arrivals {
			a := a
			env.Schedule(a.at, func() {
				err := pr.timeSubmit(func() error {
					_, err := c.SubmitEvent(model.Micro, a.class)
					return err
				})
				if err != nil {
					rejected++
				}
			})
		}
		return c.Run()
	}, func() any { return c })
	if err != nil {
		return nil, err
	}
	c.Shutdown()
	st := c.Stats()
	for _, v := range invariant.CheckSharded(c, st) {
		s.Violations = append(s.Violations, v.String())
	}
	if st.Requests+rejected != len(arrivals) {
		s.Violations = append(s.Violations, fmt.Sprintf("%d of %d arrivals submitted", st.Requests+rejected, len(arrivals)))
	}
	s.Settled = st.Completed + st.Failed + rejected

	var lat metrics.Percentiles
	for _, m := range st.PerModel {
		if m.Model == model.Micro {
			lat = m.Latency
		}
	}
	sim := s.Sim
	submitted := float64(len(arrivals))
	sim["ok_frac"] = float64(st.Completed) / submitted
	sim["sim_makespan_s"] = float64(st.Completed) / st.Goodput
	sim["sim_goodput"] = st.Goodput
	sim["sim_lat_p50_ms"] = lat.P50 * 1e3
	sim["sim_lat_p99_ms"] = lat.P99 * 1e3
	sim["sim_lat_n"] = float64(lat.N)
	devs := make([]*gpu.Device, c.Devices())
	for i := range devs {
		devs[i] = c.Server(i).Device()
	}
	recordGPU(sim, devs, sim["sim_makespan_s"])
	batches, batched := 0, 0.0
	for _, ds := range st.PerDevice {
		batches += ds.Batches
		batched += ds.MeanBatchSize * float64(ds.Batches)
	}
	sim["serving.batches"] = float64(batches)
	if batches > 0 {
		sim["serving.batch_size_mean"] = batched / float64(batches)
	}
	sim["faults.crashes"] = float64(st.Crashes)
	sim["faults.revives"] = float64(st.Revives)
	sim["faults.unavailability"] = st.Unavailability
	sim["cluster.failovers"] = float64(st.Failovers)
	sim["cluster.decisions"] = float64(st.Decisions)
	sim["cluster.rejected"] = float64(rejected)
	sim["cluster.attempt_success_frac"] = float64(st.Completed) / float64(st.Requests+st.Failovers+st.Hedges)
	s.Hash = fingerprint(sim, st.DecisionHash)
	return s, nil
}

// llmBaseRate is the llmoverload experiment's 1x arrival rate; the
// benchmark offers 4x.
const llmBaseRate = 2500.0

// runLLM drives open-loop Poisson chat traffic into a prefill/decode
// disaggregated LLM fleet configured as in the llmoverload experiment, at
// four times that experiment's base rate.
func runLLM(seed int64, sc scale, pr *probe) (*sample, error) {
	const ttftSLO = 25 * time.Millisecond
	dist := llm.LengthDist{Name: "chat", PromptMin: 16, PromptMax: 256, OutputMin: 16, OutputMax: 128}
	rng := rand.New(rand.NewSource(seed))
	type arrival struct {
		at             time.Duration
		class          overload.Class
		prompt, output int
	}
	arrivals := make([]arrival, sc.llmRequests)
	at := time.Duration(0)
	for i := range arrivals {
		at += time.Duration(rng.ExpFloat64() / (4 * llmBaseRate) * float64(time.Second))
		p, o := dist.Sample(rng)
		class := overload.Interactive
		if rng.Float64() < 1.0/3 {
			class = overload.Batch
		}
		arrivals[i] = arrival{at: at, class: class, prompt: p, output: o}
	}

	cfg := cluster.LLMConfig{
		Seed:            seed,
		Model:           model.LLMTiny,
		PrefillReplicas: 2,
		DecodeReplicas:  2,
		MaxQueue:        16,
		Route:           cluster.LeastKVPressure,
		TTFTDeadline:    ttftSLO,
		TPOTBudget:      5 * time.Millisecond,
		Admission:       &overload.TokenAIMDConfig{Initial: 2048, Min: 256, Max: 4096},
		KVWatermark:     0.85,
		DegradedTail:    8,
		MaxRetries:      3,
		Workers:         runtime.NumCPU(),
	}
	weights, err := model.LLMWeightsBytes(model.LLMTiny)
	if err != nil {
		return nil, err
	}
	// A KV-starved decode pool, as in the llmoverload experiment.
	cfg.DecodeSpec = gpu.GTX1080Ti
	cfg.DecodeSpec.Name = "starved-decode"
	cfg.DecodeSpec.MemoryBytes = weights + (768 << 10)
	s := newSample()
	var c *cluster.LLMCluster
	err = setupRepeated(s, func() (err error) {
		c, err = cluster.NewLLM(cfg, cluster.Sharded)
		return err
	})
	if err != nil {
		return nil, err
	}
	if pr.traced {
		// NewLLM profiles each distinct spec internally; time the same calls
		// apart from setup_s to show the profiling share of the build.
		t1 := time.Now()
		for _, spec := range []gpu.Spec{gpu.GTX1080Ti, cfg.DecodeSpec} {
			if _, err := profiler.ProfileLLM(cfg.Model, spec, cfg.Seed); err != nil {
				return nil, err
			}
		}
		s.Host["setup.profile_s"] = time.Since(t1).Seconds()
	}

	err = runPhase(s, pr, func() error {
		env := c.FrontEnv()
		var subErr error
		for _, a := range arrivals {
			a := a
			env.Schedule(a.at, func() {
				err := pr.timeSubmit(func() error {
					_, err := c.SubmitEvent(a.class, a.prompt, a.output)
					return err
				})
				if err != nil && subErr == nil {
					subErr = err
				}
			})
		}
		if err := c.Run(); err != nil {
			return err
		}
		// The fleet is fault-free, so routing can never fail synchronously.
		return subErr
	}, func() any { return c })
	if err != nil {
		return nil, err
	}
	c.Shutdown()
	st := c.Stats()
	for _, v := range invariant.CheckLLM(c, st) {
		s.Violations = append(s.Violations, v.String())
	}
	if st.Requests != len(arrivals) {
		s.Violations = append(s.Violations, fmt.Sprintf("%d of %d arrivals submitted", st.Requests, len(arrivals)))
	}
	s.Settled = st.Completed + st.Failed + st.Shed + st.Expired

	// End-to-end latency of completed requests, arrival to last token.
	var lat []float64
	for _, r := range c.Requests() {
		if r.Finished() && r.Err == nil {
			lat = append(lat, (r.FinishAt - r.ArriveAt).Seconds())
		}
	}
	p := metrics.PercentilesOf(lat)
	makespan := float64(st.Completed) / st.Goodput
	sim := s.Sim
	sim["ok_frac"] = float64(st.Completed) / float64(st.Requests)
	sim["sim_makespan_s"] = makespan
	sim["sim_goodput"] = st.Goodput
	sim["sim_lat_p50_ms"] = p.P50 * 1e3
	sim["sim_lat_p99_ms"] = p.P99 * 1e3
	sim["sim_lat_n"] = float64(p.N)
	sim["sim_ttft_p50_ms"] = st.Tokens.TTFT.P50 * 1e3
	sim["sim_ttft_p99_ms"] = st.Tokens.TTFT.P99 * 1e3
	sim["sim_tpot_p50_ms"] = st.Tokens.TPOT.P50 * 1e3
	sim["sim_tpot_p99_ms"] = st.Tokens.TPOT.P99 * 1e3
	devs := make([]*gpu.Device, c.Devices())
	for i := range devs {
		devs[i] = c.Server(i).Device()
	}
	recordGPU(sim, devs, makespan)
	sim["llm.preemptions"] = float64(st.Preemptions)
	sim["llm.kv_transfers"] = float64(st.Transfers)
	sim["llm.transfer_mb"] = float64(st.TransferBytes) / 1e6
	sim["llm.tokens_delivered"] = float64(st.TokensDelivered)
	sim["overload.shed"] = float64(st.Shed)
	sim["overload.expired"] = float64(st.Expired)
	sim["overload.truncated_tokens"] = float64(st.TruncatedTokens)
	sim["cluster.retries"] = float64(st.Retries)
	sim["cluster.retry_denied"] = float64(st.RetryDenied)
	sim["cluster.failovers"] = float64(st.Failovers)
	sim["cluster.decisions"] = float64(st.Decisions)
	sim["cluster.attempt_success_frac"] = float64(st.Completed) / float64(st.Requests+st.Retries+st.Failovers)
	s.Hash = fingerprint(sim, st.DecisionHash)
	return s, nil
}

// recordGPU records the devices' total kernel count, their busy fraction
// over the makespan and the worst submission-queue peak.
func recordGPU(sim map[string]float64, devs []*gpu.Device, makespan float64) {
	var kernels, queuePeak int
	var busy time.Duration
	for _, d := range devs {
		ds := d.Stats()
		kernels += ds.KernelsRun
		busy += ds.TotalBusy
		queuePeak = max(queuePeak, ds.QueuePeak)
	}
	sim["gpu.kernels"] = float64(kernels)
	sim["gpu.busy_frac"] = busy.Seconds() / (makespan * float64(len(devs)))
	sim["gpu.queue_peak"] = float64(queuePeak)
}

// fingerprint hashes the deterministic simulated results of a run: every
// Sim value's exact bits and the router's decision hash.
func fingerprint(sim map[string]float64, decisions uint64) string {
	keys := make([]string, 0, len(sim))
	for k := range sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	fmt.Fprintf(h, "decisions=%x\n", decisions)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%x\n", k, math.Float64bits(sim[k]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
