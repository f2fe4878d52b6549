package executor

import (
	"errors"
	"fmt"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/obs"
	"olympian/internal/sim"
)

// thread is one gang thread's progress through Algorithm 1's PROCESS loop,
// kept as a resumable state machine instead of on a coroutine stack. run
// advances it from one block point to the next; at each block it registers
// exactly one wake-up for its process, at the moment and in the order a
// blocking implementation of the loop would, and returns. Pool threads run
// it from a stackless process's step; the session thread runs it on its own
// coroutine and suspends at each block.
type thread struct {
	e     *Engine
	job   *Job
	queue []*graph.Node // BFS queue: queue[head:] are still to be processed
	head  int
	pc    threadPC

	n         *graph.Node   // node being processed
	start     sim.Time      // when n's compute began
	dur       time.Duration // n's jittered (and profiling-taxed) duration
	slice     time.Duration // duration of the kernel being launched
	remaining time.Duration // GPU work of n not yet launched as a slice
	attempt   int           // relaunches of the current slice so far
	k         *gpu.Kernel   // kernel in flight
}

// threadPC is the point in the PROCESS loop at which a thread resumes.
type threadPC uint8

const (
	pcNext        threadPC = iota // pop the next node, check for aborts
	pcYield                       // node-boundary yield (Algorithm 2 line 12)
	pcCompute                     // node overhead paid: draw the duration
	pcAcquire                     // take an in-flight kernel slot
	pcLaunchYield                 // launch-side yield past the in-flight gate
	pcSlice                       // carve the next kernel slice, if any
	pcSliceYield                  // sub-node preemption point between slices
	pcLaunch                      // submit the kernel and wait for it
	pcLanded                      // the kernel's Done fired
	pcRetryYield                  // re-yield before relaunching a failed kernel
	pcRelease                     // free the in-flight slot
	pcNodeDone                    // node finished: observe, account, fan out
)

// begin starts the thread on the subtree rooted at root for job.
func (t *thread) begin(job *Job, root *graph.Node) {
	t.job = job
	t.queue = append(t.queue, root)
	t.pc = pcNext
}

// finish drops the rest of the queue and reports the subtree done.
func (t *thread) finish() bool {
	clear(t.queue[t.head:])
	t.queue = t.queue[:0]
	t.head = 0
	t.n = nil
	return true
}

// pop takes the oldest queued node, sliding the live tail down once the
// consumed prefix is at least half the slice, so the backing array stays
// bounded by the peak queue length rather than the nodes ever queued.
func (t *thread) pop() *graph.Node {
	n := t.queue[t.head]
	t.queue[t.head] = nil
	t.head++
	if t.head >= len(t.queue)/2 {
		m := copy(t.queue, t.queue[t.head:])
		clear(t.queue[m:])
		t.queue = t.queue[:m]
		t.head = 0
	}
	return n
}

// run advances the thread on process p until it blocks, having registered
// one wake-up for p (false), or its subtree is done (true). Call it again
// when the wake-up runs.
func (t *thread) run(p *sim.Proc) bool {
	e, job := t.e, t.job
	for {
		switch t.pc {
		case pcNext:
			if t.head == len(t.queue) {
				return t.finish()
			}
			t.n = t.pop()
			if !job.aborted && e.cfg.Faults.JobAborts() {
				e.AbortJob(p, job, faults.ErrJobAborted)
			}
			if job.aborted {
				return t.finish()
			}
			t.pc = pcYield
		case pcYield:
			if !e.hooks.Yield(p, job) {
				return false
			}
			if job.aborted {
				return t.finish()
			}
			t.start = p.Now()
			t.pc = pcCompute
			if e.cfg.NodeOverhead > 0 {
				p.Delay(e.cfg.NodeOverhead)
				return false
			}
		case pcCompute:
			// CPU nodes burn simulated CPU time; GPU nodes submit a kernel
			// and wait for it (the thread "manages" the kernel, as the
			// paper describes).
			t.dur = e.jittered(t.n.Duration)
			if !t.n.IsGPU() {
				t.pc = pcNodeDone
				p.Delay(t.dur)
				return false
			}
			if e.cfg.OnlineProfilingTax > 0 {
				t.dur = time.Duration(float64(t.dur) * e.profilingFactor(job.Graph))
			}
			t.pc = pcAcquire
		case pcAcquire:
			if !job.inflight.TryAcquire(p) {
				return false
			}
			t.pc = pcLaunchYield
		case pcLaunchYield:
			// Second yield point, on the kernel-launch side of the in-flight
			// gate: a thread that waited out other kernels here must not
			// launch while its job is switched out.
			if !e.hooks.Yield(p, job) {
				return false
			}
			t.attempt = 0
			switch {
			case job.aborted:
				// Woken by Cancel: skip the launch and let the gang unwind.
				t.pc = pcRelease
			case e.cfg.KernelSliceDur > 0 && t.dur > e.cfg.KernelSliceDur:
				// The kernel-slicing baseline: the first slice launches at
				// once, later ones after a preemption point each.
				t.slice = e.cfg.KernelSliceDur
				t.remaining = t.dur - t.slice
				t.pc = pcLaunch
			default:
				t.slice, t.remaining = t.dur, 0
				t.pc = pcLaunch
			}
		case pcSlice:
			if t.remaining <= 0 {
				t.pc = pcRelease
				continue
			}
			t.slice = min(e.cfg.KernelSliceDur, t.remaining)
			t.remaining -= t.slice
			t.pc = pcSliceYield
		case pcSliceYield:
			// Sub-node preemption point; every slice after the first pays
			// the state save/restore of the kernel's parallel context.
			if !e.hooks.Yield(p, job) {
				return false
			}
			if job.aborted {
				t.pc = pcRelease
				continue
			}
			t.slice += e.cfg.KernelSlicePenalty
			t.attempt = 0
			t.pc = pcLaunch
		case pcLaunch:
			k := e.kernel()
			k.Owner = job.ID
			k.Stream = job.Client
			k.Duration = t.slice
			k.Occupancy = t.n.Occupancy
			e.dev.Submit(k)
			t.k = k
			t.pc = pcLanded
			if k.Done.Enlist(p) {
				return false
			}
		case pcLanded:
			t.pc = t.landed(p)
		case pcRetryYield:
			// Re-yield before relaunching: the retry must not run while the
			// job is switched out, and an abort may have landed meanwhile.
			if !e.hooks.Yield(p, job) {
				return false
			}
			if job.aborted {
				t.pc = pcRelease
				continue
			}
			t.attempt++
			t.pc = pcLaunch
		case pcRelease:
			job.inflight.Release()
			t.pc = pcNodeDone
		case pcNodeDone:
			n := t.n
			if e.NodeObserver != nil {
				e.NodeObserver(job, n, p.Now().Sub(t.start), t.dur)
			}
			e.hooks.NodeDone(p, job, n)
			for _, child := range n.Children {
				if !child.Async {
					t.queue = append(t.queue, child)
					continue
				}
				job.wg.Add(1)
				e.pool.submit(task{job: job, node: child})
			}
			t.pc = pcNext
		}
	}
}

// landed returns a completed kernel to the engine's free list and decides
// what follows: the next slice on success, a relaunch on an injected
// transient failure, or the end of the node once the retry cap is spent —
// which aborts the whole job, since the fault is no longer transient from
// the middleware's point of view.
func (t *thread) landed(p *sim.Proc) threadPC {
	e, job, n := t.e, t.job, t.n
	k := t.k
	t.k = nil
	err := k.Err
	e.kernels = append(e.kernels, k)
	switch {
	case err == nil:
		return pcSlice
	case errors.Is(err, faults.ErrDeviceCrashed):
		// The device is gone, not glitching: retrying against a dead
		// device would spin the retry budget on instant failures. Abort
		// immediately so the serving layer can fail the batch over.
		e.AbortJob(p, job, fmt.Errorf("executor: job %d node %d: %w", job.ID, n.ID, err))
		return pcRelease
	case t.attempt >= e.cfg.KernelRetries:
		e.AbortJob(p, job, fmt.Errorf("executor: job %d node %d: %w (gave up after %d attempts)",
			job.ID, n.ID, err, t.attempt+1))
		return pcRelease
	}
	e.kernelRetries++
	e.retriesC.Inc()
	e.cfg.Obs.Instant(obs.LayerExecutor, "kernel_retry", job.ID, obs.NoClass, e.cfg.Device, int64(t.attempt+1))
	return pcRetryYield
}
