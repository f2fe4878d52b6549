package sim

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// stepper is a stackless process body that runs its phases in order, one
// per wake-up: each phase registers the next wake-up (or none, to stay
// parked for good). goSteps spawns it as a daemon, since a stackless
// process never exits.
type stepper struct {
	phases []func(p *Proc)
	next   int
}

func (s *stepper) step(p *Proc) {
	if s.next < len(s.phases) {
		s.next++
		s.phases[s.next-1](p)
	}
}

func goSteps(e *Env, name string, phases ...func(p *Proc)) *Proc {
	s := &stepper{phases: phases}
	p := e.GoStep(name, s.step)
	p.SetDaemon(true)
	return p
}

// TestCondMixedWaitersFIFO: coroutine and stackless waiters on one Cond are
// woken in the order they enlisted, by Signal and Broadcast alike.
func TestCondMixedWaitersFIFO(t *testing.T) {
	for _, broadcast := range []bool{false, true} {
		env := NewEnv(1)
		c := env.NewCond("mixed")
		var woke []string
		coroutine := func(name string) {
			env.Go(name, func(p *Proc) {
				c.Wait(p)
				woke = append(woke, name)
			})
		}
		stackless := func(name string) {
			goSteps(env, name,
				func(p *Proc) { c.Enlist(p) },
				func(p *Proc) { woke = append(woke, name) })
		}
		coroutine("a")
		stackless("b")
		coroutine("c")
		stackless("d")
		env.Go("waker", func(p *Proc) {
			p.Sleep(time.Millisecond)
			if broadcast {
				c.Broadcast()
				return
			}
			for i := 0; i < 4; i++ {
				c.Signal()
				p.Sleep(time.Millisecond)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		if got := strings.Join(woke, ""); got != "abcd" {
			t.Fatalf("broadcast=%v: woken in order %q, want abcd", broadcast, got)
		}
	}
}

// TestEventEnlistAfterTrigger: Enlist registers a wake-up on an untriggered
// event and reports false, registering nothing, once it has triggered.
func TestEventEnlistAfterTrigger(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	var before, after bool
	var wokeAt Time
	goSteps(env, "s",
		func(p *Proc) { before = ev.Enlist(p) },
		func(p *Proc) {
			wokeAt = p.Now()
			after = ev.Enlist(p)
		})
	env.Schedule(time.Millisecond, ev.Trigger)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !before || after {
		t.Fatalf("Enlist before/after Trigger = %v/%v, want true/false", before, after)
	}
	if wokeAt != Time(time.Millisecond) {
		t.Fatalf("woken at %v, want 1ms", wokeAt)
	}
	if n, ok := env.NextEventTime(); ok {
		t.Fatalf("Enlist on a triggered event queued a wake-up at %v", n)
	}
}

// TestSemaphoreTryAcquireEnlists: a failed TryAcquire enlists the process,
// which the next Release wakes to take the slot.
func TestSemaphoreTryAcquireEnlists(t *testing.T) {
	env := NewEnv(1)
	sem := env.NewSemaphore(1)
	env.Go("holder", func(p *Proc) {
		sem.Acquire(p)
		p.Sleep(time.Millisecond)
		sem.Release()
	})
	var tries []bool
	var gotAt Time
	try := func(p *Proc) {
		ok := sem.TryAcquire(p)
		tries = append(tries, ok)
		if ok {
			gotAt = p.Now()
		}
	}
	goSteps(env, "s", try, try)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tries) != 2 || tries[0] || !tries[1] {
		t.Fatalf("TryAcquire results %v, want [false true]", tries)
	}
	if gotAt != Time(time.Millisecond) || sem.Free() != 0 {
		t.Fatalf("slot taken at %v with %d free, want 1ms and 0", gotAt, sem.Free())
	}
}

// TestStacklessWakeAllocs: waking a stackless process allocates nothing,
// whether the driver runs it or a parked coroutine's fast path does.
func TestStacklessWakeAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 64)
	c := env.NewCond("stackless")
	wakes := 0
	env.GoStep("s", func(p *Proc) {
		wakes++
		c.Enlist(p)
	}).SetDaemon(true)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	driver := testing.AllocsPerRun(500, func() {
		c.Signal()
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	})
	var inline float64
	env.Go("sleeper", func(p *Proc) {
		inline = testing.AllocsPerRun(500, func() {
			c.Signal()
			p.Sleep(0)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if driver > 0 || inline > 0 {
		t.Fatalf("stackless wake-up allocates %.2f/op from the driver and %.2f/op inline, want 0", driver, inline)
	}
	if wakes < 1000 {
		t.Fatalf("stackless process woke %d times, want at least 1000", wakes)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	return id
}

// TestStacklessWakeRunsInlineInPark: a stackless wake-up that comes due
// while a coroutine is parked runs on that coroutine, in Suspend's fast
// path, without a switch to the driver.
func TestStacklessWakeRunsInlineInPark(t *testing.T) {
	env := NewEnv(1)
	var sleeper, stepped int
	var steppedAt Time
	env.Go("sleeper", func(p *Proc) {
		sleeper = goid()
		p.Sleep(time.Millisecond)
	})
	goSteps(env, "s",
		func(p *Proc) { p.Delay(500 * time.Microsecond) },
		func(p *Proc) { stepped, steppedAt = goid(), p.Now() })
	driver := goid()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if steppedAt != Time(500*time.Microsecond) {
		t.Fatalf("stackless wake-up ran at %v, want 500µs", steppedAt)
	}
	if stepped != sleeper || stepped == driver {
		t.Fatalf("stackless wake-up ran on goroutine %d; sleeper %d, driver %d", stepped, sleeper, driver)
	}
}

// TestStacklessDeadlockReport: a stuck stackless process is reported with
// the reason its last registration recorded, as a coroutine would be.
func TestStacklessDeadlockReport(t *testing.T) {
	env := NewEnv(1)
	c := env.NewCond("gate")
	env.GoStep("s", func(p *Proc) { c.Enlist(p) })
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "s blocked on cond:gate") {
		t.Fatalf("Run = %v, want a deadlock naming s blocked on cond:gate", err)
	}
	env.Shutdown()
}

// TestStacklessBlockingCallPanics: a stackless process has no stack to
// park, so a blocking call from its step is a programming error.
func TestStacklessBlockingCallPanics(t *testing.T) {
	env := NewEnv(1)
	goSteps(env, "s", func(p *Proc) { p.Sleep(time.Millisecond) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "stackless") {
			t.Fatalf("recovered %v, want the stackless blocking-call panic", r)
		}
	}()
	_ = env.Run()
	t.Fatal("Run returned; want a panic")
}
