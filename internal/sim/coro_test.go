package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestShutdownReleasesGoroutines: every process is a coroutine with its own
// goroutine; Shutdown must end all of them, whether the process is parked
// or was never dispatched.
func TestShutdownReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	idle := env.NewCond("idle")
	for i := 0; i < 1000; i++ {
		env.Go("daemon", func(p *Proc) { idle.Wait(p) }).SetDaemon(true)
	}
	for i := 0; i < 50; i++ {
		env.Go("short", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		env.Go("never-started", func(p *Proc) { t.Error("never-started proc ran") })
	}
	env.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Shutdown, want at most the baseline %d", n, base)
	}
}

// TestProcPanicSurfacesFromRun: a panic inside process code reaches the
// goroutine that called Run, where the caller can recover it.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	env := NewEnv(1)
	env.Go("other", func(p *Proc) { p.Sleep(time.Millisecond) })
	env.Go("faulty", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = env.Run()
	}()
	if s, ok := got.(string); !ok || !strings.Contains(s, "boom") {
		t.Fatalf("Run recovered %v, want the process's panic \"boom\"", got)
	}
}

// TestEventReset: a triggered event re-arms and fires again; resetting one
// with waiters parked on it would strand them and panics.
func TestEventReset(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	woke := 0
	env.Go("waiter", func(p *Proc) {
		for i := 0; i < 2; i++ {
			ev.Wait(p)
			woke++
			ev.Reset()
		}
	})
	env.Go("trigger", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Sleep(time.Millisecond)
			ev.Trigger()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 2 || ev.Triggered() {
		t.Fatalf("woke %d times, triggered=%v; want 2 wake-ups and a re-armed event", woke, ev.Triggered())
	}

	pending := env.NewEvent()
	env.Go("parked", func(p *Proc) { pending.Wait(p) }).SetDaemon(true)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	defer env.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a parked waiter did not panic")
		}
	}()
	pending.Reset()
}
