package gpu

import (
	"testing"
	"time"

	"olympian/internal/sim"
)

// TestRetiredBatchStateIsReaped runs 100k single-kernel streams, each
// closed and its owner released once its kernel completes, as serving
// retires batches: the device must end holding no stream or owner state.
func TestRetiredBatchStateIsReaped(t *testing.T) {
	const batches = 100_000
	env := sim.NewEnv(1)
	dev := New(env, GTX1080Ti)
	env.Go("batches", func(p *sim.Proc) {
		for id := 1; id <= batches; id++ {
			dev.Submit(&Kernel{Owner: id, Stream: id, Duration: time.Microsecond, Occupancy: 1}).Wait(p)
			dev.CloseStream(id)
			dev.ReleaseOwner(id)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.KernelsRun != batches {
		t.Fatalf("ran %d kernels, want %d", st.KernelsRun, batches)
	}
	if st.Streams != 0 || st.Owners != 0 {
		t.Fatalf("device holds %d streams and %d owners after every batch retired, want 0 and 0", st.Streams, st.Owners)
	}
}

// TestCloseStreamReapsOnceDrained: closing a stream with kernels still
// queued keeps it (and its weight) until the last kernel is dispatched.
func TestCloseStreamReapsOnceDrained(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, Spec{Name: "b", ClockScale: 1, Capacity: 1, StreamBias: 0.5})
	var weight float64
	var streamsAfterClose int
	env.Go("batch", func(p *sim.Proc) {
		var evs []*sim.Event
		for i := 0; i < 3; i++ {
			evs = append(evs, dev.Submit(&Kernel{Owner: 1, Stream: 7, Duration: time.Millisecond, Occupancy: 1}))
		}
		weight = dev.StreamWeight(7)
		dev.CloseStream(7)
		streamsAfterClose = dev.Stats().Streams
		for _, ev := range evs {
			ev.Wait(p)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if streamsAfterClose != 1 {
		t.Fatalf("closing a stream with queued kernels left %d streams, want 1 until it drains", streamsAfterClose)
	}
	if weight == 1 {
		t.Fatal("stream bias drew no weight")
	}
	if got := dev.Stats().Streams; got != 0 {
		t.Fatalf("%d streams after the closed stream drained, want 0", got)
	}
	if got := dev.StreamWeight(7); got != 1 {
		t.Fatalf("reaped stream reports weight %v, want 1", got)
	}
	if got := dev.Stats().KernelsRun; got != 3 {
		t.Fatalf("ran %d kernels, want all 3 of the closed stream", got)
	}
}

// TestUnclosedStreamKeepsWeight: a per-client stream that drains and comes
// back keeps the weight drawn at its first submission.
func TestUnclosedStreamKeepsWeight(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, Spec{Name: "b", ClockScale: 1, Capacity: 1, StreamBias: 0.5})
	var first, later float64
	env.Go("client", func(p *sim.Proc) {
		dev.Submit(&Kernel{Owner: 1, Stream: 3, Duration: time.Millisecond}).Wait(p)
		first = dev.StreamWeight(3)
		p.Sleep(time.Millisecond)
		dev.Submit(&Kernel{Owner: 2, Stream: 4, Duration: time.Millisecond}).Wait(p)
		dev.Submit(&Kernel{Owner: 3, Stream: 3, Duration: time.Millisecond}).Wait(p)
		later = dev.StreamWeight(3)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if first != later {
		t.Fatalf("returning stream's weight changed from %v to %v", first, later)
	}
	if got := dev.Stats().Streams; got != 2 {
		t.Fatalf("%d streams, want both unclosed streams kept", got)
	}
}

// TestReleaseOwnerWaitsForResidentKernels: a released owner's accounting
// survives while any of its kernels is resident — including a kernel still
// in its launch phase — and is dropped when the last one finishes.
func TestReleaseOwnerWaitsForResidentKernels(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, Spec{Name: "l", ClockScale: 1, Capacity: 1, LaunchLatency: 10 * time.Microsecond})
	var launching, executing int
	var busyWhileHeld time.Duration
	env.Go("job", func(p *sim.Proc) {
		ev := dev.Submit(&Kernel{Owner: 5, Stream: 1, Duration: time.Millisecond, Occupancy: 1})
		dev.ReleaseOwner(5) // the kernel is in its launch phase
		launching = dev.Stats().Owners
		p.Sleep(500 * time.Microsecond)
		executing = dev.Stats().Owners
		busyWhileHeld = dev.OwnerBusy(5)
		ev.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if launching != 1 || executing != 1 {
		t.Fatalf("owners while the released job's kernel was launching/executing = %d/%d, want 1/1", launching, executing)
	}
	if busyWhileHeld <= 0 {
		t.Fatal("released owner lost its busy time while its kernel was still resident")
	}
	if got := dev.Stats().Owners; got != 0 {
		t.Fatalf("%d owners after the released job's last kernel finished, want 0", got)
	}
	if dev.OwnerBusy(5) != 0 || dev.OwnerKernels(5) != 0 || dev.ActiveKernels(5) != 0 {
		t.Fatal("a reaped owner must read 0 from every accessor")
	}
	if dev.OwnerBusy(99) != 0 || dev.OwnerKernels(99) != 0 || dev.ActiveKernels(99) != 0 {
		t.Fatal("an unknown owner must read 0 from every accessor")
	}
}

// TestCrashReapsClosedStreamsAndReleasedOwners: a crash that fails a
// closed stream's queued kernels and a released owner's resident one drops
// both entries; the unclosed stream survives.
func TestCrashReapsClosedStreamsAndReleasedOwners(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch)
	env.Go("jobs", func(p *sim.Proc) {
		// Owner 1 on stream 1 is resident; owner 2's kernels queue on
		// stream 2 behind it; owner 3 on stream 3 queues too.
		dev.Submit(&Kernel{Owner: 1, Stream: 1, Duration: time.Millisecond, Occupancy: 1})
		dev.Submit(&Kernel{Owner: 2, Stream: 2, Duration: time.Millisecond, Occupancy: 1})
		dev.Submit(&Kernel{Owner: 2, Stream: 2, Duration: time.Millisecond, Occupancy: 1})
		dev.Submit(&Kernel{Owner: 3, Stream: 3, Duration: time.Millisecond, Occupancy: 1})
		dev.CloseStream(1)
		dev.CloseStream(2)
		dev.ReleaseOwner(1)
		p.Sleep(500 * time.Microsecond)
		dev.crash(0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.Streams != 1 {
		t.Fatalf("%d streams after the crash, want only unclosed stream 3", st.Streams)
	}
	if st.Owners != 0 {
		t.Fatalf("%d owners after the crash, want 0: owner 1 was released, 2 and 3 never dispatched", st.Owners)
	}
	if n := dev.QueueLen(); n != 0 {
		t.Fatalf("%d kernels still queued after the crash", n)
	}
}
