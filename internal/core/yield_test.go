package core

import (
	"errors"
	"testing"
	"time"

	"olympian/internal/executor"
	"olympian/internal/gpu"
	"olympian/internal/sim"
)

// yieldFixture registers two jobs, a (the token holder) and b, with a fresh
// scheduler from a session process, then runs body on that process.
func yieldFixture(t *testing.T, cfg Config, body func(p *sim.Proc, s *Scheduler, eng *executor.Engine, a, b *executor.Job)) *sim.Env {
	t.Helper()
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec)
	s := New(env, dev, cfg)
	eng := executor.New(env, dev, executor.Config{}, s)
	g := chainGraph(t, "y", 1, time.Millisecond)
	a, b := eng.NewJob(1, g), eng.NewJob(2, g)
	env.Go("session", func(p *sim.Proc) {
		s.Register(p, a)
		s.Register(p, b)
		body(p, s, eng, a, b)
	})
	return env
}

// steps spawns a stackless daemon that calls phase with its wake-up count.
func steps(env *sim.Env, phase func(p *sim.Proc, wake int)) {
	wake := 0
	env.GoStep("thread", func(p *sim.Proc) {
		phase(p, wake)
		wake++
	}).SetDaemon(true)
}

// TestYieldEnlistsNonHolderUntilGrant: a non-holder's Yield reports false
// and enlists the thread, and the grant that hands its job the token wakes
// it to yield again, this time successfully.
func TestYieldEnlistsNonHolderUntilGrant(t *testing.T) {
	var results []bool
	var proceededAt sim.Time
	var b *executor.Job
	var s *Scheduler
	env := yieldFixture(t, Config{}, func(p *sim.Proc, sched *Scheduler, _ *executor.Engine, ja, jb *executor.Job) {
		s, b = sched, jb
		p.Sleep(time.Millisecond)
		sched.Deregister(p, ja) // the token passes to b
	})
	steps(env, func(p *sim.Proc, _ int) {
		ok := s.Yield(p, b)
		results = append(results, ok)
		if ok {
			proceededAt = p.Now()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if len(results) != 2 || results[0] || !results[1] {
		t.Fatalf("Yield results %v, want [false true]", results)
	}
	if proceededAt != sim.Time(time.Millisecond) || s.HolderClient() != 2 {
		t.Fatalf("proceeded at %v with holder client %d, want 1ms and 2", proceededAt, s.HolderClient())
	}
}

// TestYieldOfAbortedJobProceeds: once a job is aborted its threads may
// always proceed, holder or not, and Yield enlists nothing.
func TestYieldOfAbortedJobProceeds(t *testing.T) {
	var ok, woken bool
	env := yieldFixture(t, Config{}, func(p *sim.Proc, s *Scheduler, eng *executor.Engine, a, b *executor.Job) {
		eng.AbortJob(p, b, errors.New("test abort"))
		ok = s.Yield(p, b)
		s.Deregister(p, a) // grants b: would wake an enlisted thread
		_, woken = p.Env().NextEventTime()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if !ok {
		t.Fatal("Yield of an aborted non-holder returned false, want true")
	}
	if woken {
		t.Fatal("the grant woke a thread: Yield of an aborted job enlisted it")
	}
}

// TestWallClockRotationOnlyOnProceed: in wall-clock mode an expired slice
// rotates the token from the holder's own Yield, which proceeds; a
// non-holder's Yield that enlists leaves the token alone.
func TestWallClockRotationOnlyOnProceed(t *testing.T) {
	var s *Scheduler
	var b *executor.Job
	var holderOK bool
	var holderSwitches int
	env := yieldFixture(t, Config{Mode: WallClock, Quantum: time.Millisecond}, func(p *sim.Proc, sched *Scheduler, _ *executor.Engine, a, jb *executor.Job) {
		s, b = sched, jb
		p.Sleep(3 * time.Millisecond)
		holderOK = sched.Yield(p, a)
		holderSwitches = sched.Switches()
	})
	type sample struct {
		ok       bool
		switches int
		holder   int
	}
	var seen []sample
	steps(env, func(p *sim.Proc, wake int) {
		if wake == 0 {
			p.Delay(2 * time.Millisecond) // past a's expired slice
			return
		}
		ok := s.Yield(p, b)
		seen = append(seen, sample{ok, s.Switches(), s.HolderClient()})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	want := []sample{{false, 0, 1}, {true, 1, 2}}
	if len(seen) != 2 || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("non-holder Yield samples %+v, want %+v", seen, want)
	}
	if !holderOK || holderSwitches != 1 {
		t.Fatalf("holder Yield = %v after %d switches, want true after 1", holderOK, holderSwitches)
	}
}
