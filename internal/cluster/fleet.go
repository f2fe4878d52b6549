package cluster

import (
	"fmt"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/obs"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
)

// Engine selects how a fleet executes its shards.
type Engine int

const (
	// SingleHeap runs every shard on one shared event heap — the reference
	// engine differential tests compare the parallel engine against.
	SingleHeap Engine = iota
	// Sharded runs each shard on its own heap, windows in parallel.
	Sharded
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case SingleHeap:
		return "single-heap"
	case Sharded:
		return "sharded"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// DefaultNetLatency is the fallback front-end<->device network latency (and
// thus the conservative lookahead bounding each parallel window).
const DefaultNetLatency = 50 * time.Microsecond

// fleetConfig is what the shared front-end substrate reads from a fleet's
// defaulted config.
type fleetConfig struct {
	devices   int
	engine    Engine
	seed      int64
	net       time.Duration // front-end<->device hop and shard lookahead
	workers   int
	slim      bool
	route     RoutePolicy
	debt      func(modelName string) (time.Duration, error) // cost-weighted router's debt oracle
	obs       *obs.Recorder
	telemetry *telemetry.Config
}

// fleet is the front-end substrate the DNN fleet (ShardedCluster) and the
// LLM fleet (LLMCluster) embed: the shard set (shard 0 the front-end, shard
// i+1 device i), per-shard recorders and telemetry samplers, the router, the
// request and attempt bookkeeping, and the crash/revive report plumbing. R is
// the fleet's request type. Dispatch and settlement stay on the embedding
// type, so the hot path makes no interface call.
type fleet[R any] struct {
	fleetConfig
	shards *sim.Shards
	router *Router

	// children[0] records the front-end, children[i+1] device i; merged onto
	// the configured recorder by FinishObs. All nil when recording is off.
	children []*obs.Recorder
	rec      *obs.Recorder

	// samplers[i] scrapes children[i]'s registry on shard i's virtual clock;
	// nil when telemetry is off. timeline caches the merged view.
	samplers []*telemetry.Sampler
	timeline *telemetry.Timeline

	// Front-end bookkeeping, all owned by shard 0.
	requests   []*R // retained unless slim
	attemptReq map[int]*R
	reqCount   int
	attempts   int
	crashes    int
	revives    int

	routesC    *obs.Series
	failoversC *obs.Series
	crashesC   *obs.Series
	revivesC   *obs.Series
}

// init builds the shard set, the per-shard recorders and samplers, the
// front-end counters and the router. registerMid registers the embedding
// fleet's own counters between the failover and crash counters, which keeps
// each fleet's registration order.
func (f *fleet[R]) init(fc fleetConfig, registerMid func(reg *obs.Registry)) {
	n := fc.devices
	f.fleetConfig = fc
	f.shards = sim.NewShards(sim.ShardsConfig{
		N:          n + 1,
		Lookahead:  fc.net,
		Seed:       fc.seed,
		SingleHeap: fc.engine == SingleHeap,
		Workers:    fc.workers,
	})
	f.attemptReq = make(map[int]*R)
	f.children = make([]*obs.Recorder, n+1)
	if fc.obs != nil {
		for i := range f.children {
			f.children[i] = fc.obs.NewChild()
			f.children[i].Attach(f.shards.Env(i))
		}
		if fc.telemetry != nil {
			f.samplers = make([]*telemetry.Sampler, len(f.children))
			for i := range f.children {
				f.samplers[i] = telemetry.NewSampler(*fc.telemetry, f.children[i].Registry())
				f.samplers[i].Bind(f.shards.Env(i))
			}
		}
	}
	f.rec = f.children[0]
	reg := f.rec.Registry()
	f.routesC = reg.Counter("olympian_cluster_routes_total", "Routing decisions.")
	f.failoversC = reg.Counter("olympian_cluster_failovers_total", "Requests re-dispatched after a drain.")
	registerMid(reg)
	f.crashesC = reg.Counter("olympian_cluster_crashes_total", "Devices crashed permanently or pending restart.")
	f.revivesC = reg.Counter("olympian_cluster_revives_total", "Replicas re-admitted after restart warm-up.")

	f.router = newRouter(f.shards.Env(0), n, fc.route, fc.debt)
	if fc.slim {
		f.router.setSlim()
	}
}

// injector builds device i's fault injector from its plan, seeded from the
// fleet seed and the device index; nil leaves the device fault-free.
func (f *fleet[R]) injector(plans []*faults.Plan, i int) *faults.Injector {
	if i < len(plans) && plans[i] != nil && plans[i].Enabled() {
		return faults.New(f.seed+int64(i)*1031, *plans[i])
	}
	return nil
}

// watchDevice wires device i's crash and ready observers. On a crash the
// device drains itself through drain (device-side; drained attempts report
// back on their own), arms its revival with the modeled warm-up after the
// recovery delay on its own heap, and reports to the front-end, which marks
// the replica dead — no timer expiry there brings it back. A ready report
// re-admits it.
func (f *fleet[R]) watchDevice(i int, dev *gpu.Device, warm time.Duration, drain func() int) {
	env := f.shards.Env(i + 1)
	devRec := f.children[i+1]
	dev.SetCrashObserver(func(recovery time.Duration) {
		drained := drain()
		devRec.Instant(obs.LayerCluster, "crash_drain", obs.NoReq, obs.NoClass, i, int64(drained))
		if recovery > 0 {
			env.Schedule(recovery, func() { dev.Revive(warm) })
		}
		f.shards.Send(i+1, 0, f.net, func() { f.crashReported(i) })
	})
	dev.SetReadyObserver(func() {
		f.shards.Send(i+1, 0, f.net, func() { f.readyReported(i) })
	})
}

// crashReported runs on shard 0 when a device's crash report arrives: the
// replica is marked dead at the router — only a revive report re-admits it.
func (f *fleet[R]) crashReported(dev int) {
	f.router.MarkDead(dev)
	f.crashes++
	f.crashesC.Inc()
	f.rec.Instant(obs.LayerCluster, "crash", obs.NoReq, obs.NoClass, dev, 0)
}

// readyReported runs on shard 0 when a revived device's ready report
// arrives: the replica re-enters rotation with a clean slate.
func (f *fleet[R]) readyReported(dev int) {
	f.router.Revive(dev)
	f.revives++
	f.revivesC.Inc()
	f.rec.Instant(obs.LayerCluster, "revive", obs.NoReq, obs.NoClass, dev, 0)
}

// admit takes one routed arrival: it retains r unless slim, counts the
// routing decision, and returns r's arrival index.
func (f *fleet[R]) admit(r *R) int {
	id := f.reqCount
	f.reqCount++
	if !f.slim {
		f.requests = append(f.requests, r)
	}
	f.routesC.Inc()
	return id
}

// track registers one dispatch attempt of r and returns its id.
func (f *fleet[R]) track(r *R) int {
	id := f.attempts
	f.attempts++
	f.attemptReq[id] = r
	return id
}

// take retires attempt id when its outcome report arrives and returns its
// request.
func (f *fleet[R]) take(id int) *R {
	r := f.attemptReq[id]
	delete(f.attemptReq, id)
	return r
}

// Engine returns which execution engine the fleet runs on.
func (f *fleet[R]) Engine() Engine { return f.engine }

// FrontEnv returns shard 0's environment — schedule arrival generators here.
func (f *fleet[R]) FrontEnv() *sim.Env { return f.shards.Env(0) }

// Router exposes the routing layer (decision log, health controls).
func (f *fleet[R]) Router() *Router { return f.router }

// Devices returns the fleet size.
func (f *fleet[R]) Devices() int { return f.devices }

// OutstandingAttempts returns how many dispatch attempts are still in flight
// (dispatched, no outcome report folded back yet). After a run has quiesced
// it must be zero — the conservation checkers assert this: a nonzero count
// means some attempt's completion was lost.
func (f *fleet[R]) OutstandingAttempts() int { return len(f.attemptReq) }

// Run executes the simulation to completion across all shards.
func (f *fleet[R]) Run() error { return f.shards.Run() }

// Shutdown terminates remaining processes on every shard. Call once after
// Run.
func (f *fleet[R]) Shutdown() { f.shards.Shutdown() }

// FinishObs folds the per-shard recorders onto the configured recorder under
// one boundary label, then logs any SLO burn-rate alert transitions as
// telemetry-layer instants on the same merged time base. Call once after
// Run; a no-op when recording is off.
func (f *fleet[R]) FinishObs(label string) {
	if f.obs == nil {
		return
	}
	f.obs.Merge(label, f.children)
	if tl := f.Timeline(); tl != nil {
		tl.LogAlerts(f.obs)
	}
}

// Timeline merges the per-shard samplers into the run's fleet telemetry
// timeline and evaluates the configured SLO burn-rate rules. Each shard's
// sampler ticks on its own virtual clock; Merge extends the early-quiescing
// ones to the global tick count, so the result is identical on the
// single-heap and parallel engines. Returns nil when telemetry is off; call
// after Run (the merge is cached).
func (f *fleet[R]) Timeline() *telemetry.Timeline {
	if f.samplers == nil {
		return nil
	}
	if f.timeline == nil {
		f.timeline = telemetry.Merge(*f.telemetry, f.samplers)
	}
	return f.timeline
}
