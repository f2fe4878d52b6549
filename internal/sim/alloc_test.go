package sim

import (
	"testing"
	"time"
)

// warmHeap grows the event heap's backing array so steady-state pushes in
// the measurements below never reallocate.
func warmHeap(t *testing.T, env *Env, n int) {
	t.Helper()
	fn := func() {}
	for i := 0; i < n; i++ {
		env.Schedule(time.Duration(i), fn)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
}

func TestScheduleSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 2048)
	fn := func() {}
	avg := testing.AllocsPerRun(1000, func() {
		env.Schedule(time.Microsecond, fn)
	})
	if avg > 0 {
		t.Fatalf("Env.Schedule allocates %.2f/op on the steady-state path, want 0", avg)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSleepSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 64)
	var avg float64
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond) // settle past spawn
		avg = testing.AllocsPerRun(500, func() {
			p.Sleep(time.Microsecond)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("Proc.Sleep allocates %.2f/op on the self-dispatch path, want 0", avg)
	}
}

func TestTriggerSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 256)
	const n = 128
	events := make([]*Event, n)
	for i := range events {
		ev := env.NewEvent()
		events[i] = ev
		env.Go("waiter", func(p *Proc) { ev.Wait(p) }).SetDaemon(true)
	}
	if err := env.Run(); err != nil { // park every waiter
		t.Fatal(err)
	}
	i := 0
	avg := testing.AllocsPerRun(n-1, func() {
		events[i].Trigger()
		i++
	})
	if err := env.Run(); err != nil { // drain the wakeups
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("Event.Trigger allocates %.2f/op per wakeup, want 0", avg)
	}
}

func TestSignalSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 256)
	const n = 128
	cond := env.NewCond("bench")
	for i := 0; i < n; i++ {
		env.Go("waiter", func(p *Proc) { cond.Wait(p) }).SetDaemon(true)
	}
	if err := env.Run(); err != nil { // park every waiter
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(n-1, func() {
		cond.Signal()
	})
	if err := env.Run(); err != nil { // drain the wakeups
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("Cond.Signal allocates %.2f/op per wakeup, want 0", avg)
	}
}

// TestCondWaitSteadyStateAllocs locks in that re-waiting on a condition
// variable (the thread-pool idle loop) does not allocate: the park reason is
// precomputed at NewCond time.
func TestCondWaitSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 64)
	cond := env.NewCond("bench")
	var avg float64
	env.Go("waiter", func(p *Proc) {
		avg = testing.AllocsPerRun(200, func() {
			// Self-schedule the wakeup, then record the reason and suspend
			// exactly as Cond.Wait does; each iteration redispatches via the
			// in-place event loop.
			env.scheduleProc(0, p)
			p.Hold(cond.parkWhy)
			p.Suspend()
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("Cond.Wait park path allocates %.2f/op, want 0", avg)
	}
}

// TestCondPingPongAllocs: two processes alternating through a pair of
// condition variables switch coroutines via the driver on every hand-off,
// and that path allocates nothing.
func TestCondPingPongAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 64)
	ping, pong := env.NewCond("ping"), env.NewCond("pong")
	turn := 0
	env.Go("pong", func(p *Proc) {
		for {
			for turn != 1 {
				pong.Wait(p)
			}
			turn = 0
			ping.Signal()
		}
	}).SetDaemon(true)
	var avg float64
	env.Go("ping", func(p *Proc) {
		round := func() {
			turn = 1
			pong.Signal()
			for turn != 0 {
				ping.Wait(p)
			}
		}
		round() // settle: both waiter arrays exist
		avg = testing.AllocsPerRun(500, round)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("two-proc Cond ping-pong allocates %.2f/op, want 0", avg)
	}
}
