// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with coroutine-backed and stackless processes.
//
// The kernel substitutes for wall-clock concurrency in the Olympian
// reproduction: simulated CPU threads (Proc) block and resume on the same
// primitives the paper's middleware uses (sleeps, condition variables,
// one-shot events), but time is virtual, exactly one process runs at a time,
// and same-timestamp events fire in a stable (time, sequence) order, so every
// experiment is reproducible from its seed.
//
// Concurrency model: a process is either a runtime coroutine (Go, backed by
// iter.Pull) or stackless (GoStep). The event loop runs on the driver — the
// goroutine that called Run, RunUntil or RunWindow. The driver pops events,
// runs callbacks inline and, when a process's wake-up is popped, resumes its
// coroutine or, for a stackless process, calls its step function inline. A
// parking coroutine process first runs the loop in place: it executes
// callback events and stackless wake-ups itself and, when its own wake-up is
// next, returns straight into its caller with no switch at all. Only when
// another coroutine's wake-up is at the head does it suspend to the driver,
// which then resumes that process. A coroutine switch is a direct hand-off
// between two goroutines with no scheduler round trip, and process code runs
// under total mutual exclusion, so it may freely mutate shared simulation
// state between blocking points without locks.
//
// Coroutine processes block by calling Sleep, Wait, Acquire or Suspend and
// keep their progress on their own stack. A stackless process keeps its
// progress in its own state instead: its step registers exactly one wake-up
// with a non-blocking call (Delay, Hold, Cond.Enlist, Event.Enlist,
// Semaphore.TryAcquire) and returns, and the next wake-up calls step again.
// Both kinds wait in the same []*Proc waiter lists, so a Cond may hold a mix
// of them and wakes them in FIFO order either way. The executor runs its
// pool threads stackless; session, client and serving processes stay
// coroutines.
//
// Event representation: the queue is a 4-ary min-heap of event values —
// no container/heap interface boxing, no per-event pointer allocation. An
// event is either a callback (fn) or the wake-up of a parked process
// (proc); the dedicated dispatch kind keeps Sleep, Event.Trigger, and
// Cond.Signal from allocating a wakeup closure. Vacated heap slots are
// recycled in place, so the backing array doubles as the event free list.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration re-exports time.Duration for virtual intervals.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the interval between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as a duration since the start of the run.
func (t Time) String() string { return Duration(t).String() }

// event is a scheduled occurrence: a callback when fn is set, or the
// resumption of a parked process when proc is set.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

// eventHeap is a 4-ary min-heap of event values ordered by (at, seq).
// Compared with container/heap's binary heap of pointers it needs no
// interface conversions, no per-event allocation, and half the tree depth;
// sibling comparisons stay within one or two cache lines.
type eventHeap []event

func eventBefore(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventBefore(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release closure/proc references
	s = s[:n]
	*h = s
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if eventBefore(&s[j], &s[m]) {
				m = j
			}
		}
		if !eventBefore(&s[m], &s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of live processes.
type Env struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand

	live    int // non-daemon procs that have started and not yet exited
	procs   map[*Proc]struct{}
	procSeq int

	stopped bool
	limit   Time // 0 means no limit

	// Heartbeats fire at fixed virtual-time boundaries without occupying
	// the event queue: the run loop checks hbNext (maxTime when none are
	// registered — one predictable comparison on the hot path) before
	// executing each popped event and fires every boundary strictly below
	// the event's timestamp. A heartbeat therefore sees the simulation
	// state exactly as of its boundary — all events at or before it have
	// run, none after — and schedules nothing itself, so registering one
	// cannot perturb event order, randomness, or run termination.
	hbs    []heartbeat
	hbNext Time
}

// heartbeat is one registered fixed-interval callback.
type heartbeat struct {
	every Time
	next  Time
	fn    func(at Time)
}

// maxTime is the sentinel hbNext value when no heartbeats are registered.
const maxTime = Time(1<<63 - 1)

// NewEnv returns an environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:    rand.New(rand.NewSource(seed)),
		procs:  make(map[*Proc]struct{}),
		hbNext: maxTime,
	}
}

// Heartbeat registers fn to run at every multiple of the interval on the
// virtual clock (first at one interval past the current time). Callbacks
// fire lazily, immediately before the first event with a later timestamp
// executes, so an event scheduled exactly on a boundary is included in that
// boundary's view of the state; boundaries past the last event never fire.
// fn must only read simulation state — it must not schedule events, spawn
// processes, or draw randomness. Multiple heartbeats may be registered (a
// single-heap sharded engine registers one per shard on the shared
// environment); same-time boundaries fire in registration order.
func (e *Env) Heartbeat(every Duration, fn func(at Time)) {
	if every <= 0 || fn == nil {
		return
	}
	hb := heartbeat{every: Time(every), next: e.now + Time(every), fn: fn}
	e.hbs = append(e.hbs, hb)
	if hb.next < e.hbNext {
		e.hbNext = hb.next
	}
}

// fireHeartbeats runs every due boundary strictly below at, in (boundary
// time, registration order), and recomputes the next-due cache.
func (e *Env) fireHeartbeats(at Time) {
	for {
		best := -1
		bt := maxTime
		for i := range e.hbs {
			if e.hbs[i].next < bt {
				best, bt = i, e.hbs[i].next
			}
		}
		if best < 0 || bt >= at {
			e.hbNext = bt
			return
		}
		e.hbs[best].fn(bt)
		e.hbs[best].next = bt + e.hbs[best].every
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's seeded random source. It must only be used
// from process context or event callbacks so that draw order is
// deterministic.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Schedule runs fn at time e.Now()+d. fn executes in event-loop context and
// must not block; to run blocking code, spawn a process with Go.
func (e *Env) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.events.push(event{at: e.now.Add(d), seq: e.seq, fn: fn})
}

// scheduleProc queues the resumption of p at time e.Now()+d. Unlike
// Schedule, it allocates nothing: the wakeup is a plain heap entry.
func (e *Env) scheduleProc(d Duration, p *Proc) {
	e.seq++
	e.events.push(event{at: e.now.Add(d), seq: e.seq, proc: p})
}

// Stop halts the run after the current event completes.
func (e *Env) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Env) Stopped() bool { return e.stopped }

// NextEventTime returns the timestamp of the earliest queued event, or false
// when the queue is empty. Shard coordinators use it to compute the global
// lower-bound barrier without disturbing the queue.
func (e *Env) NextEventTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// ScheduleAt runs fn at absolute virtual time t (clamped to the present).
// Cross-shard mailboxes use it to deliver messages stamped with an arrival
// time computed on the sending shard's clock.
func (e *Env) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// Proc is a simulated thread of control, backed by a coroutine (Go) or
// stackless (GoStep).
type Proc struct {
	env    *Env
	id     int
	name   string
	why    string // blocking reason while parked, for deadlock reports
	dead   bool
	daemon bool
	killed bool

	resume  func() (struct{}, bool) // driver side: run the proc until it parks or exits
	stop    func()                  // driver side: unwind a parked proc (Shutdown)
	suspend func(struct{}) bool     // proc side: hand control back to the driver

	step func(*Proc) // stackless procs: called on every wake-up; nil for coroutines
}

// killSentinel unwinds a killed process's stack during Env.Shutdown.
type killSentinel struct{}

// SetDaemon marks the process as a daemon: a run may end while daemons are
// still parked (e.g. idle thread-pool workers) without reporting deadlock.
func (p *Proc) SetDaemon(v bool) {
	if p.daemon == v {
		return
	}
	p.daemon = v
	if v {
		p.env.live--
	} else {
		p.env.live++
	}
}

// ID returns the process's unique id within its environment.
func (p *Proc) ID() int { return p.id }

// Name returns the label given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a process that begins executing fn at the current virtual time.
// It may be called before Run or from process/event context during a run.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{env: e, id: e.procSeq, name: name, why: "start"}
	e.live++
	e.procs[p] = struct{}{}
	p.resume, p.stop = newCoroutine(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		if !p.killed {
			runKillable(fn, p)
		}
		p.exit()
	})
	e.scheduleProc(0, p)
	return p
}

// GoStep spawns a stackless process: it owns no coroutine, and each of its
// wake-ups calls step inline on whichever goroutine is running the event
// loop. step must not block (Sleep, Wait, Acquire and Suspend panic on a
// stackless process): it runs to the process's next block point, registers
// exactly one wake-up there with Delay, Hold, Cond.Enlist, Event.Enlist or
// Semaphore.TryAcquire, and returns, keeping its progress in its own state.
// As with Go, the first call happens at the current virtual time, after the
// events already queued for it. A stackless process lives until Shutdown.
func (e *Env) GoStep(name string, step func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{env: e, id: e.procSeq, name: name, why: "start", step: step}
	e.live++
	e.procs[p] = struct{}{}
	e.scheduleProc(0, p)
	return p
}

// exit retires a process whose function has returned or been unwound,
// dropping its coroutine so a still-referenced Proc pins no coroutine state.
func (p *Proc) exit() {
	p.resume, p.stop, p.suspend, p.step = nil, nil, nil, nil
	p.dead = true
	if !p.daemon {
		p.env.live--
	}
	delete(p.env.procs, p)
}

// runKillable executes fn, converting the kill sentinel panic used by
// Shutdown into a clean return.
func runKillable(fn func(*Proc), p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				panic(r)
			}
		}
	}()
	fn(p)
}

// Shutdown terminates all remaining processes (including daemons), unwinding
// parked coroutines through their deferred calls, discarding never-started
// ones and retiring stackless ones, so every coroutine goroutine exits. Call
// it once after Run returns; the environment must not be used afterwards.
func (e *Env) Shutdown() {
	for p := range e.procs {
		if p.dead {
			continue
		}
		p.killed = true
		if p.stop != nil {
			p.stop()
		}
		if !p.dead { // stackless, or never started: no body to unwind
			p.exit()
		}
	}
}

// runnable reports whether the head event may execute: the queue is not
// empty, Stop was not called and the head is within the time limit.
func (e *Env) runnable() bool {
	return len(e.events) > 0 && !e.stopped && (e.limit <= 0 || e.events[0].at <= e.limit)
}

// runLoop executes queued events on the driver until the run is over (for
// now). Callbacks and stackless wake-ups run inline; a popped coroutine
// wake-up resumes that process's coroutine, which returns here when it next
// parks behind another coroutine's wake-up, parks at the end of the run, or
// exits.
func (e *Env) runLoop() {
	for e.runnable() {
		ev := e.events.pop()
		if ev.at > e.hbNext {
			e.fireHeartbeats(ev.at)
		}
		if ev.proc == nil {
			e.now = ev.at
			ev.fn()
			continue
		}
		q := ev.proc
		if q.dead {
			continue
		}
		e.now = ev.at
		q.why = ""
		if q.step != nil {
			q.step(q)
			continue
		}
		q.resume()
	}
}

// Suspend parks the coroutine process p until the wake-up it registered
// beforehand (Delay, Hold, Cond.Enlist, Event.Enlist or a failed
// Semaphore.TryAcquire) runs, running the event loop in place meanwhile.
//
// Fast path: callbacks and stackless wake-ups run right here on the
// process's coroutine, and when the process's own wake-up comes up it simply
// returns — a process that sleeps and is the next to run costs no switch at
// all. Otherwise, when another coroutine's wake-up is at the head or the run
// is over, it suspends to the driver, which pops that head next.
func (p *Proc) Suspend() {
	if p.step != nil {
		panic("sim: blocking call on stackless process " + p.name)
	}
	e := p.env
	for e.runnable() {
		if q := e.events[0].proc; q != nil && q != p && q.step == nil && !q.dead {
			break
		}
		ev := e.events.pop()
		if ev.at > e.hbNext {
			e.fireHeartbeats(ev.at)
		}
		if ev.proc == nil {
			e.now = ev.at
			ev.fn()
			continue
		}
		q := ev.proc
		if q.dead {
			continue
		}
		e.now = ev.at
		q.why = ""
		if q != p {
			q.step(q)
			continue
		}
		return
	}
	if !p.suspend(struct{}{}) {
		panic(killSentinel{}) // Shutdown: unwind the process
	}
}

// Sleep suspends the process for virtual duration d. Even a zero sleep is a
// scheduling point: it yields to other same-time events in deterministic
// order.
func (p *Proc) Sleep(d Duration) {
	p.Delay(d)
	p.Suspend()
}

// Delay registers p's wake-up after virtual duration d without blocking:
// the stackless form of Sleep.
func (p *Proc) Delay(d Duration) {
	if d < 0 {
		d = 0
	}
	p.why = "sleep"
	p.env.scheduleProc(d, p)
}

// Hold records that p waits, for the reason why (shown in deadlock
// reports), on a wake-up that other code will deliver with Wake: the
// registration of a process parked outside any Cond, Event or Semaphore,
// such as an idle pool thread.
func (p *Proc) Hold(why string) { p.why = why }

// Wake schedules p's wake-up at the current time. The caller must own p's
// one pending registration: p is parked by Hold and enlisted nowhere else.
func (p *Proc) Wake() { p.env.scheduleProc(0, p) }

// Yield reschedules the process at the current time, letting any other
// same-time events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Run executes events until the queue is empty, Stop is called, or the
// optional time limit is reached. It returns an error if live processes
// remain parked with no runnable events (deadlock).
func (e *Env) Run() error {
	e.runLoop()
	if !e.stopped && len(e.events) == 0 && e.live > 0 {
		return e.deadlockError()
	}
	return nil
}

// RunUntil executes events up to and including time t, leaving later events
// queued.
func (e *Env) RunUntil(t Time) error {
	e.limit = t
	defer func() { e.limit = 0 }()
	return e.Run()
}

// RunWindow executes events up to and including time t like RunUntil, but
// performs no deadlock check: a sharded sub-environment may legitimately go
// idle with parked processes while it waits for cross-shard messages, so the
// shard coordinator owns the global stuck check (see StuckError).
func (e *Env) RunWindow(t Time) {
	e.limit = t
	e.runLoop()
	e.limit = 0
}

// StuckError returns the deadlock report for this environment's parked
// processes, or nil when no non-daemon processes remain. Shard coordinators
// call it once every sub-environment has drained and no messages are in
// flight — the point at which parked processes really are stuck.
func (e *Env) StuckError() error {
	if e.stopped || e.live <= 0 {
		return nil
	}
	return e.deadlockError()
}

func (e *Env) deadlockError() error {
	type stuck struct {
		name, why string
	}
	var list []stuck
	for p := range e.procs {
		if p.dead {
			continue
		}
		list = append(list, stuck{p.name, p.why})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	msg := fmt.Sprintf("sim: deadlock at %v: %d live procs, none runnable", e.now, e.live)
	for i, s := range list {
		if i >= 8 {
			msg += fmt.Sprintf("; … and %d more", len(list)-8)
			break
		}
		msg += fmt.Sprintf("; %s blocked on %s", s.name, s.why)
	}
	return fmt.Errorf("%s", msg)
}

// Event is a one-shot occurrence processes can wait on. Once triggered,
// subsequent waits return immediately until Reset re-arms it.
type Event struct {
	env       *Env
	triggered bool
	waiters   []*Proc
	subs      []func()
}

// NewEvent returns an untriggered event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Trigger fires the event, scheduling all waiters to resume at the current
// time. Triggering an already-triggered event is a no-op. The waiter list
// keeps its backing array, so a re-armed event waits again without
// allocating.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	for _, p := range ev.waiters {
		ev.env.scheduleProc(0, p)
	}
	clear(ev.waiters)
	ev.waiters = ev.waiters[:0]
	for _, fn := range ev.subs {
		ev.env.Schedule(0, fn)
	}
	ev.subs = nil
}

// Reset re-arms the event so it can be waited on and triggered again. It
// panics when processes or subscribers are still waiting on the untriggered
// event: re-arming would strand them.
func (ev *Event) Reset() {
	if len(ev.waiters) > 0 || len(ev.subs) > 0 {
		panic("sim: Event.Reset with waiters pending")
	}
	ev.triggered = false
}

// Subscribe registers fn to run in event context when the event triggers;
// if it already has, fn is scheduled at the current time. Unlike Wait it
// needs no process, so completion fan-out at scale costs no goroutine.
// Callbacks run after any waiters scheduled by the same Trigger.
func (ev *Event) Subscribe(fn func()) {
	if ev.triggered {
		ev.env.Schedule(0, fn)
		return
	}
	ev.subs = append(ev.subs, fn)
}

// Wait blocks p until the event is triggered.
func (ev *Event) Wait(p *Proc) {
	if ev.Enlist(p) {
		p.Suspend()
	}
}

// Enlist registers p to be woken when the event triggers, without blocking,
// and reports whether it did: once the event has triggered it returns false
// and registers nothing, and p may go on at once.
func (ev *Event) Enlist(p *Proc) bool {
	if ev.triggered {
		return false
	}
	ev.waiters = append(ev.waiters, p)
	p.why = "event"
	return true
}

// Cond is a condition variable for processes. Unlike sync.Cond it needs no
// lock: process code already runs under total mutual exclusion, so the usual
// pattern is
//
//	for !condition() { cond.Wait(p) }
type Cond struct {
	env     *Env
	waiters []*Proc // waiters[head:] wait in FIFO order
	head    int
	parkWhy string // "cond:"+label, precomputed so Wait never allocates it
}

// NewCond returns a condition variable; label appears in deadlock reports.
func (e *Env) NewCond(label string) *Cond {
	return &Cond{env: e, parkWhy: "cond:" + label}
}

// Wait blocks p until another process calls Signal or Broadcast. Callers
// must re-check their condition in a loop: a wake-up does not imply the
// condition holds.
func (c *Cond) Wait(p *Proc) {
	c.Enlist(p)
	p.Suspend()
}

// Enlist queues p as the newest waiter without blocking: the Signal or
// Broadcast that reaches it schedules its wake-up. A coroutine process
// follows it with Suspend, as Wait does; a stackless one returns from its
// step.
func (c *Cond) Enlist(p *Proc) {
	if c.head > 0 && c.head >= len(c.waiters)/2 {
		// Slide the live waiters down so the backing array stays bounded
		// by the peak number of waiters, not by the total ever queued.
		n := copy(c.waiters, c.waiters[c.head:])
		clear(c.waiters[n:])
		c.waiters = c.waiters[:n]
		c.head = 0
	}
	c.waiters = append(c.waiters, p)
	p.why = c.parkWhy
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.head == len(c.waiters) {
		return
	}
	p := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	c.env.scheduleProc(0, p)
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters[c.head:] {
		c.env.scheduleProc(0, p)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
	c.head = 0
}

// Semaphore is a counting semaphore for processes.
type Semaphore struct {
	env  *Env
	free int
	cond *Cond
}

// NewSemaphore returns a semaphore with n free slots.
func (e *Env) NewSemaphore(n int) *Semaphore {
	return &Semaphore{env: e, free: n, cond: e.NewCond("semaphore")}
}

// Acquire blocks p until a slot is free, then takes it.
func (s *Semaphore) Acquire(p *Proc) {
	for !s.TryAcquire(p) {
		p.Suspend()
	}
}

// TryAcquire takes a free slot and reports true, or else enlists p to be
// woken by a Release and reports false; the woken process must call
// TryAcquire again, since another may have taken the slot first.
func (s *Semaphore) TryAcquire(p *Proc) bool {
	if s.free > 0 {
		s.free--
		return true
	}
	s.cond.Enlist(p)
	return false
}

// Release frees a slot, waking one waiter.
func (s *Semaphore) Release() {
	s.free++
	s.cond.Signal()
}

// Free returns the number of free slots.
func (s *Semaphore) Free() int { return s.free }

// WaitGroup counts in-flight tasks; Wait blocks until the count reaches zero.
type WaitGroup struct {
	env   *Env
	count int
	cond  *Cond
}

// NewWaitGroup returns a wait group with count zero.
func (e *Env) NewWaitGroup() *WaitGroup {
	return &WaitGroup{env: e, cond: e.NewCond("waitgroup")}
}

// Add increments the count by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the count, waking waiters when it reaches zero.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if wg.count == 0 {
		wg.cond.Broadcast()
	}
}

// Count returns the current count.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait blocks p until the count is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.cond.Wait(p)
	}
}
