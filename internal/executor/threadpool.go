package executor

import (
	"olympian/internal/graph"
	"olympian/internal/sim"
)

// ThreadPool is the shared CPU thread pool TF-Serving fetches gang threads
// from (Algorithm 1 line 14). Threads are stackless simulated processes,
// reused LIFO, each running the PROCESS loop of the async subtree it was
// handed as a state machine (see thread). When the pool is exhausted,
// submissions queue until a thread frees up — the "execution may be
// delayed" behaviour the paper notes, and the mechanism behind Olympian's
// reduced scalability for some DNNs (§4.3): suspended gangs hold their
// threads, so Olympian reaches the limit sooner.
type ThreadPool struct {
	eng *Engine
	max int

	idle    []*worker
	backlog []task
	total   int

	// perJob counts threads currently executing (or suspended inside) a
	// task for each job.
	perJob map[int]int

	stats PoolStats
}

// PoolStats are thread-pool counters.
type PoolStats struct {
	// Spawned is the number of worker threads ever created.
	Spawned int
	// PeakInUse is the maximum number of simultaneously busy threads.
	PeakInUse int
	// Delayed counts submissions that had to wait for a free thread.
	Delayed int
	// Completed counts finished tasks.
	Completed int
}

// task is one unit of pool work: the async subtree rooted at node of job.
type task struct {
	job  *Job
	node *graph.Node
}

// worker is one pool thread: its stackless process, the task it was handed
// and its gang-thread state.
type worker struct {
	tp   *ThreadPool
	p    *sim.Proc
	next task // handed over by submit, taken when the worker wakes
	th   thread
}

// newThreadPool returns a pool of eng's gang threads that will grow up to
// max threads.
func newThreadPool(eng *Engine, max int) *ThreadPool {
	return &ThreadPool{eng: eng, max: max, perJob: make(map[int]int)}
}

// submit hands t to an idle thread, spawns a thread for it below the cap, or
// delays it until a thread frees up.
func (tp *ThreadPool) submit(t task) {
	if n := len(tp.idle); n > 0 {
		w := tp.idle[n-1]
		tp.idle = tp.idle[:n-1]
		w.next = t
		w.p.Wake()
		return
	}
	if tp.total < tp.max {
		tp.spawn(t)
		return
	}
	tp.stats.Delayed++
	tp.backlog = append(tp.backlog, t)
}

func (tp *ThreadPool) spawn(first task) {
	tp.total++
	tp.stats.Spawned++
	w := &worker{tp: tp, next: first}
	w.th.e = tp.eng
	w.p = tp.eng.env.GoStep("pool-worker", w.step)
	w.p.SetDaemon(true)
}

// step is the worker's wake-up: take the handed-over task if the worker is
// between tasks, advance the task's thread to its next block point, and on
// finishing it leave the job's gang and take a delayed task or go idle.
func (w *worker) step(p *sim.Proc) {
	tp := w.tp
	for {
		if w.th.job == nil {
			t := w.next
			w.next = task{}
			tp.perJob[t.job.ID]++
			if used := tp.InUse(); used > tp.stats.PeakInUse {
				tp.stats.PeakInUse = used
			}
			w.th.begin(t.job, t.node)
		}
		if !w.th.run(p) {
			return
		}
		job := w.th.job
		w.th.job = nil
		job.wg.Done()
		tp.perJob[job.ID]--
		if tp.perJob[job.ID] == 0 {
			delete(tp.perJob, job.ID)
		}
		tp.stats.Completed++
		if len(tp.backlog) > 0 {
			w.next = tp.backlog[0]
			tp.backlog[0] = task{}
			tp.backlog = tp.backlog[1:]
			continue
		}
		tp.idle = append(tp.idle, w)
		p.Hold("cond:pool-worker") // until the next submit wakes us
		return
	}
}

// InUse returns the number of threads currently executing tasks.
func (tp *ThreadPool) InUse() int { return tp.total - len(tp.idle) }

// Total returns the number of threads in existence.
func (tp *ThreadPool) Total() int { return tp.total }

// JobThreads returns how many pool threads are currently working for jobID.
func (tp *ThreadPool) JobThreads(jobID int) int { return tp.perJob[jobID] }

// Backlog returns the number of delayed submissions still waiting.
func (tp *ThreadPool) Backlog() int { return len(tp.backlog) }

// Stats returns a snapshot of pool counters.
func (tp *ThreadPool) Stats() PoolStats { return tp.stats }
