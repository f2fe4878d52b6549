// In-process benchmark runner behind the -bench-json flag: measures the
// simulation substrate and the parallel experiment harness with
// testing.Benchmark and writes a machine-readable BENCH_<stamp>.json, so CI
// and scripts can track kernel regressions without parsing `go test -bench`
// output.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/executor"
	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/profiler"
	"olympian/internal/serving"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
	"olympian/internal/workload"
)

// benchResult is one benchmark's measurements.
type benchResult struct {
	Name        string             `json:"name"`
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the BENCH_<stamp>.json document.
type benchReport struct {
	Stamp      string        `json:"stamp"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchSuite returns the named benchmark functions, in report order.
func benchSuite() []struct {
	Name string
	Fn   func(b *testing.B)
} {
	return []struct {
		Name string
		Fn   func(b *testing.B)
	}{
		{"sim/event_throughput", benchEventThroughput},
		{"sim/proc_switch", benchProcSwitch},
		{"sim/proc_handoff", benchProcHandoff},
		{"gpu/kernel_dispatch", benchKernelDispatch},
		{"executor/gpu_node", benchGPUNode},
		{"executor/image_chains", benchImageChains},
		{"gpu/dispatch_after_100k_batches", benchDispatchAfterBatches},
		{"model/build_uncached", benchModelBuild},
		{"experiments/run_many_speedup", benchRunManySpeedup},
		{"cluster/sharded_1dev", benchShardedCluster(1, 5_000)},
		{"cluster/sharded_8dev", benchShardedCluster8},
		{"cluster/sharded_64dev", benchShardedCluster(64, 50_000)},
		{"serving/continuous_batching", benchContinuousBatching},
		{"serving/kv_starved_step", benchKVStarvedStep},
		{"telemetry/sampler", benchTelemetrySampler},
	}
}

// benchTelemetrySampler measures the telemetry plane's per-event overhead
// with sampling ON: a registry-instrumented event stream (counter bump +
// histogram observation per event) scraped every DefaultInterval of
// simulated time. The op is one simulated event, so the cost folds in the
// amortized scrape work.
func benchTelemetrySampler(b *testing.B) {
	env := sim.NewEnv(1)
	reg := obs.NewRegistry()
	s := telemetry.NewSampler(telemetry.Config{}, reg)
	s.Bind(env)
	c := reg.Counter("olympian_bench_events_total", "bench")
	h := reg.Histogram("olympian_bench_latency_seconds", "bench")
	n := 0
	var tick func()
	tick = func() {
		n++
		c.Inc()
		h.Observe(time.Duration(n%1000) * time.Microsecond)
		if n < b.N {
			env.Schedule(50*time.Microsecond, tick)
		}
	}
	env.Schedule(50*time.Microsecond, tick)
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	if s.Ticks() == 0 && b.N > 200 {
		b.Fatal("sampler never scraped")
	}
}

func benchEventThroughput(b *testing.B) {
	env := sim.NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	env.Schedule(0, tick)
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchProcSwitch(b *testing.B) {
	env := sim.NewEnv(1)
	env.Go("switcher", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchProcHandoff measures one hand-off between two processes that take
// turns through a pair of condition variables. Unlike sim/proc_switch,
// where the sleeper is always next and resumes in place, every op here
// suspends one coroutine to the driver and resumes the other.
func benchProcHandoff(b *testing.B) {
	env := sim.NewEnv(1)
	ping, pong := env.NewCond("ping"), env.NewCond("pong")
	turn := 0
	env.Go("pong", func(p *sim.Proc) {
		for {
			for turn != 1 {
				pong.Wait(p)
			}
			turn = 0
			ping.Signal()
		}
	}).SetDaemon(true)
	env.Go("ping", func(p *sim.Proc) {
		for i := 0; i < b.N; i += 2 {
			turn = 1
			pong.Signal()
			for turn != 0 {
				ping.Wait(p)
			}
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	env.Shutdown()
}

// chainHooks aborts a job once n of its GPU nodes have run.
type chainHooks struct {
	executor.NopHooks
	eng  *executor.Engine
	n    int
	done int
}

var errChainDone = errors.New("bench: chain complete")

func (h *chainHooks) NodeDone(p *sim.Proc, job *executor.Job, n *graph.Node) {
	if !n.IsGPU() {
		return
	}
	if h.done++; h.done == h.n {
		h.eng.AbortJob(p, job, errChainDone)
	}
}

// benchGPUNode measures one pool-thread GPU node round trip through the
// executor: the node is handed to a pool thread, which launches its kernel,
// waits for the device and returns to the idle pool. The graph is a single
// async GPU node that is its own child, so the job is an endless chain of
// such round trips; the hooks abort it after b.N nodes.
func benchGPUNode(b *testing.B) {
	env := sim.NewEnv(1)
	h := &chainHooks{n: b.N}
	h.eng = executor.New(env, gpu.New(env, gpu.GTX1080Ti), executor.Config{}, h)
	node := &graph.Node{Op: "k", Device: graph.GPU, Duration: 100 * time.Microsecond, Occupancy: 1, Async: true}
	node.Children = []*graph.Node{node}
	root := &graph.Node{Op: "root", Device: graph.CPU, Children: []*graph.Node{node}}
	job := h.eng.NewJob(1, &graph.Graph{Model: "chain", BatchSize: 1, Root: root})
	env.Go("session", func(p *sim.Proc) { h.eng.Run(p, job) })
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	env.Shutdown()
	if !errors.Is(job.Err(), errChainDone) {
		b.Fatalf("chain ended with %v after %d nodes, want %d nodes", job.Err(), h.done, b.N)
	}
}

// benchImageChains measures the paper's per-image preprocessing pattern: a
// job of 64 async chains of 8 GPU nodes each under an in-flight cap of 2,
// so most of its pool threads wait on the job's in-flight semaphore at any
// moment. One op is one whole job, run by the same session process on a
// warm engine.
func benchImageChains(b *testing.B) {
	env := sim.NewEnv(1)
	eng := executor.New(env, gpu.New(env, gpu.GTX1080Ti), executor.Config{MaxInflight: 2}, nil)
	root := &graph.Node{Op: "root", Device: graph.CPU}
	for i := 0; i < 64; i++ {
		var next *graph.Node
		for j := 7; j >= 0; j-- {
			n := &graph.Node{Op: "k", Device: graph.GPU, Duration: 20 * time.Microsecond, Occupancy: 0.1, Async: j == 0}
			if next != nil {
				n.Children = []*graph.Node{next}
			}
			next = n
		}
		root.Children = append(root.Children, next)
	}
	g := &graph.Graph{Model: "image-chains", BatchSize: 64, Root: root}
	if err := g.Finalize(); err != nil {
		b.Fatal(err)
	}
	env.Go("session", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			eng.Run(p, eng.NewJob(1, g))
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	env.Shutdown()
}

func benchKernelDispatch(b *testing.B) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, gpu.Spec{Name: "bench", ClockScale: 1, Capacity: 1})
	env.Go("submitter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ev := dev.Submit(&gpu.Kernel{Owner: 1, Stream: 1, Duration: time.Microsecond, Occupancy: 1})
			ev.Wait(p)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// retiredBatches is a device that has already run and retired
// retiredBatchCount single-kernel batch streams, built on first use and
// shared by every b.N round so the warm-up is paid once.
var retiredBatches struct {
	once sync.Once
	env  *sim.Env
	dev  *gpu.Device
	next int
}

const retiredBatchCount = 100_000

// runBatchStreams runs n single-kernel batches on the warm device, each on
// a fresh stream and job ID that is closed and released once the kernel
// completes, as serving retires a batch.
func runBatchStreams(b *testing.B, n int) {
	w := &retiredBatches
	w.env.Go("batches", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			w.next++
			id := w.next
			ev := w.dev.Submit(&gpu.Kernel{Owner: id, Stream: id, Duration: time.Microsecond, Occupancy: 1})
			ev.Wait(p)
			w.dev.CloseStream(id)
			w.dev.ReleaseOwner(id)
		}
	})
	if err := w.env.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchDispatchAfterBatches measures one batch's dispatch on a device that
// has already retired 100k batch streams. Driver cost must not grow with
// the number of batches a device has served, so this row stays flat
// against gpu/kernel_dispatch.
func benchDispatchAfterBatches(b *testing.B) {
	w := &retiredBatches
	w.once.Do(func() {
		w.env = sim.NewEnv(1)
		w.dev = gpu.New(w.env, gpu.GTX1080Ti)
		runBatchStreams(b, retiredBatchCount)
	})
	b.ResetTimer()
	runBatchStreams(b, b.N)
}

func benchModelBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := model.BuildUncached(model.AlexNet, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRunManySpeedup runs the same multi-config experiment serially and
// through workload.RunMany, reporting the wall-clock speedup as a metric.
// The op being timed is the parallel pass.
func benchRunManySpeedup(b *testing.B) {
	specs, err := benchSpecs()
	if err != nil {
		b.Fatal(err)
	}
	serialStart := time.Now()
	for i := range specs {
		if _, err := workload.Run(specs[i].Config, specs[i].Clients); err != nil {
			b.Fatal(err)
		}
	}
	serial := time.Since(serialStart)
	b.ResetTimer()
	parallelStart := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Results(workload.RunMany(specs)); err != nil {
			b.Fatal(err)
		}
	}
	parallel := time.Since(parallelStart) / time.Duration(b.N)
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
	b.ReportMetric(serial.Seconds(), "serial_s")
}

// benchShardedSweep runs one open-loop Poisson sweep of the micro model
// through a sharded cluster in slim mode and reports its wall-clock time.
// Mirrors the `sharded` experiment's sweep so bench numbers and experiment
// observations describe the same workload.
func benchShardedSweep(engine cluster.Engine, devices, requests int) (time.Duration, error) {
	devs := make([]gpu.Spec, devices)
	for i := range devs {
		devs[i] = gpu.GTX1080Ti
	}
	c, err := cluster.NewSharded(cluster.Config{
		Seed:         1,
		Devices:      devs,
		Route:        cluster.LeastOutstanding,
		MaxBatch:     16,
		BatchTimeout: 2 * time.Millisecond,
		Slim:         true,
	}, engine)
	if err != nil {
		return 0, err
	}
	env := c.FrontEnv()
	rng := rand.New(rand.NewSource(18))
	rate := 2000.0 * float64(devices)
	n := 0
	var gen func()
	gen = func() {
		c.SubmitEvent(model.Micro, overload.Interactive)
		n++
		if n < requests {
			env.Schedule(time.Duration(rng.ExpFloat64()*float64(time.Second)/rate), gen)
		}
	}
	env.Schedule(0, gen)
	start := time.Now()
	if err := c.Run(); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	st := c.Stats()
	c.Shutdown()
	if st.Completed != requests {
		return 0, fmt.Errorf("sharded sweep lost requests: completed %d of %d", st.Completed, requests)
	}
	return wall, nil
}

// benchShardedCluster benchmarks one full sweep per op on the parallel
// engine, reporting wall-clock requests/second.
func benchShardedCluster(devices, requests int) func(b *testing.B) {
	return func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			wall, err := benchShardedSweep(cluster.Sharded, devices, requests)
			if err != nil {
				b.Fatal(err)
			}
			total += wall
		}
		b.ReportMetric(float64(requests)*float64(b.N)/total.Seconds(), "req_per_s")
	}
}

// benchShardedCluster8 additionally measures the single-heap reference on
// the identical 8-device sweep and reports the parallel engine's wall-clock
// speedup over it. On a single core the sharded engine degrades to serial
// and the speedup hovers around 1x; the metric exists so multi-core runs can
// demonstrate (and CI can track) the parallel gain.
func benchShardedCluster8(b *testing.B) {
	const devices, requests = 8, 20_000
	single, err := benchShardedSweep(cluster.SingleHeap, devices, requests)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		wall, err := benchShardedSweep(cluster.Sharded, devices, requests)
		if err != nil {
			b.Fatal(err)
		}
		total += wall
	}
	sharded := total / time.Duration(b.N)
	b.ReportMetric(single.Seconds()/sharded.Seconds(), "speedup")
	b.ReportMetric(float64(requests)*float64(b.N)/total.Seconds(), "req_per_s")
}

// benchContinuousBatching drives one colocated LLM replica through an
// open-loop Poisson train and reports wall-clock tokens/second: the cost of
// the token-boundary scheduling loop (join/leave, KV growth, decode kernels),
// not the modeled GPU time. One op is a full 500-request run.
func benchContinuousBatching(b *testing.B) {
	const requests = 500
	prof, err := profiler.ProfileLLM(model.LLMTiny, gpu.GTX1080Ti, 900)
	if err != nil {
		b.Fatal(err)
	}
	var total time.Duration
	tokens := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv(1)
		srv, err := serving.NewLLMServer(env, serving.LLMConfig{
			Model:   model.LLMTiny,
			Seed:    1,
			Slim:    true,
			Profile: prof,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		n := 0
		var gen func()
		gen = func() {
			prompt := 16 + rng.Intn(240)
			output := 16 + rng.Intn(112)
			if _, err := srv.Submit(model.LLMTiny, overload.Interactive, prompt, output, 0); err != nil {
				b.Error(err)
			}
			n++
			if n < requests {
				env.Schedule(time.Duration(rng.ExpFloat64()*float64(time.Second)/3000), gen)
			}
		}
		env.Schedule(0, gen)
		start := time.Now()
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
		st := srv.Stats()
		if st.Completed != requests {
			b.Fatalf("continuous batching lost requests: %d of %d completed", st.Completed, requests)
		}
		tokens += st.TokensEmitted
		b.StopTimer()
		env.Shutdown()
		b.StartTimer()
	}
	b.ReportMetric(float64(tokens)/total.Seconds(), "tokens_per_s")
}

// benchKVStarvedStep drives one colocated LLM replica whose KV budget holds
// only a few sequences with a burst of mixed-class requests: the prefill
// queue stands for the whole run, the head prefill is denied cache and put
// back once per decode step, and growing sequences preempt each other. It
// measures the host cost of that KV-pressure path. One op is a full
// 200-request run; preemptions per run are reported as a metric.
func benchKVStarvedStep(b *testing.B) {
	const requests = 200
	weights, err := model.LLMWeightsBytes(model.LLMTiny)
	if err != nil {
		b.Fatal(err)
	}
	spec := gpu.GTX1080Ti
	spec.Name = "kv-starved"
	spec.MemoryBytes = weights + 640<<10 // ~320 cache tokens
	prof, err := profiler.ProfileLLM(model.LLMTiny, spec, 900)
	if err != nil {
		b.Fatal(err)
	}
	preemptions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv(1)
		srv, err := serving.NewLLMServer(env, serving.LLMConfig{
			Spec:    spec,
			Model:   model.LLMTiny,
			Seed:    1,
			Slim:    true,
			Profile: prof,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		for n := 0; n < requests; n++ {
			class := overload.Class(rng.Intn(int(overload.NumClasses)))
			prompt, output := 16+rng.Intn(48), 16+rng.Intn(112)
			env.Schedule(time.Duration(n)*time.Microsecond, func() {
				if _, err := srv.Submit(model.LLMTiny, class, prompt, output, 0); err != nil {
					b.Error(err)
				}
			})
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
		st := srv.Stats()
		if st.Completed+st.Failed != requests || st.Preemptions == 0 {
			b.Fatalf("kv-starved run: %d completed, %d failed, %d preemptions of %d requests",
				st.Completed, st.Failed, st.Preemptions, requests)
		}
		preemptions += st.Preemptions
		b.StopTimer()
		env.Shutdown()
		b.StartTimer()
	}
	b.ReportMetric(float64(preemptions)/float64(b.N), "preemptions")
}

// benchSpecs builds a small multi-config workload: four independent Olympian
// runs over a pre-warmed shared profile store.
func benchSpecs() ([]workload.RunSpec, error) {
	store := profiler.NewStore()
	clients := make([]workload.ClientSpec, 4)
	for i := range clients {
		clients[i] = workload.ClientSpec{Model: model.Inception, Batch: 50, Batches: 2}
	}
	refs := []workload.ModelRef{{Model: model.Inception, Batch: 50}}
	if err := workload.Profile(store, refs, gpu.GTX1080Ti, 900); err != nil {
		return nil, err
	}
	specs := make([]workload.RunSpec, 4)
	for i := range specs {
		specs[i] = workload.RunSpec{
			Config: workload.Config{
				Seed: int64(i + 1), Kind: workload.Olympian,
				Quantum: 1200 * time.Microsecond,
				Spec:    gpu.GTX1080Ti, Profiles: store,
			},
			Clients: clients,
		}
	}
	return specs, nil
}

// checkBenchBaseline compares a fresh benchmark report against a committed
// baseline (itself a BENCH_<stamp>.json) and errors when any shared
// benchmark's ns/op regressed by more than the tolerance fraction (0.25 =
// 25% slower). Benchmarks new since the baseline pass freely; benchmarks the
// baseline lists but the suite no longer runs are an error — the baseline is
// stale and must be refreshed from a new -bench-json snapshot.
func checkBenchBaseline(rep benchReport, path string, tol float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	baseline := make(map[string]benchResult, len(base.Benchmarks))
	for _, br := range base.Benchmarks {
		baseline[br.Name] = br
	}
	var regressions []string
	for _, br := range rep.Benchmarks {
		bb, ok := baseline[br.Name]
		if !ok {
			continue
		}
		delete(baseline, br.Name)
		if bb.NsPerOp > 0 && br.NsPerOp > bb.NsPerOp*(1+tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f (+%.1f%%, tolerance %.0f%%)",
				br.Name, br.NsPerOp, bb.NsPerOp,
				100*(br.NsPerOp/bb.NsPerOp-1), 100*tol))
		}
	}
	stale := make([]string, 0, len(baseline))
	for name := range baseline {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		return fmt.Errorf("baseline %s lists benchmarks the suite no longer runs (refresh it from a new -bench-json snapshot): %v", path, stale)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchmark regressions beyond tolerance:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}

// runBenchJSON executes the suite and writes BENCH_<stamp>.json into dir,
// returning the file path and the report for baseline comparison.
func runBenchJSON(dir string, stamp time.Time) (string, benchReport, error) {
	rep := benchReport{
		Stamp:      stamp.UTC().Format("20060102T150405Z"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, bm := range benchSuite() {
		res := testing.Benchmark(bm.Fn)
		if res.N == 0 {
			return "", rep, fmt.Errorf("benchmark %s failed (see log above)", bm.Name)
		}
		br := benchResult{
			Name:        bm.Name,
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		if len(res.Extra) > 0 {
			br.Metrics = make(map[string]float64, len(res.Extra))
			for k, v := range res.Extra {
				br.Metrics[k] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", rep, err
	}
	path := filepath.Join(dir, "BENCH_"+rep.Stamp+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", rep, err
	}
	return path, rep, nil
}
