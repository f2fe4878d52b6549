package gpu

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"olympian/internal/obs"
	"olympian/internal/sim"
)

// goldenDispatch drives a seeded mixed workload through one device and
// returns FNV-64a hashes of its dispatch sequence (stream, seq, dispatch
// time per kernel, in dispatch order) and of its crash unwind (stream, seq
// of every kernel failed by the crash, in failure order), plus how many
// kernels were queued when the crash landed.
//
// The workload covers every path the driver's pick depends on: weighted
// stream bias, mixed occupancies that open and close the bypass window
// around a large waiting kernel, per-client streams that drain and come
// back under the same ID, fresh per-batch streams closed both before and
// after their kernels drain, and a crash that lands with kernels queued.
func goldenDispatch(t *testing.T) (dispatch, unwind uint64, queuedAtCrash int) {
	t.Helper()
	env := sim.NewEnv(11)
	dev := New(env, Spec{Name: "golden", ClockScale: 1, Capacity: 1,
		LaunchLatency: 3 * time.Microsecond, MemoryBytes: 1 << 30, StreamBias: 0.5})
	rec := obs.NewRecorder()
	rec.Attach(env)
	dev.Observe(rec, 0)
	dev.SetCrashObserver(func(time.Duration) { dev.Revive(150 * time.Microsecond) })
	const crashAt = sim.Time(4 * time.Millisecond)
	env.ScheduleAt(crashAt, func() {
		queuedAtCrash = dev.QueueLen()
		dev.crash(time.Millisecond)
	})

	occ := []float64{0.1, 0.25, 0.4, 0.5, 0.9, 1.0}
	wl := rand.New(rand.NewSource(5)) // workload shape only; the driver draws from env
	var kernels []*Kernel
	uh := fnv.New64a()
	var buf [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	submit := func(stream int) *Kernel {
		k := &Kernel{
			Owner:     len(kernels),
			Stream:    stream,
			Duration:  time.Duration(20+wl.Intn(300)) * time.Microsecond,
			Occupancy: occ[wl.Intn(len(occ))],
		}
		kernels = append(kernels, k)
		dev.Submit(k)
		k.Done.Subscribe(func() {
			if k.Err != nil && k.seq != 0 && env.Now() == crashAt {
				put(uh, uint64(k.Stream))
				put(uh, k.seq)
			}
		})
		return k
	}

	// Per-client sessions: a few kernels in flight, then a think gap that
	// lets the stream drain before the same ID submits again.
	for c := 1; c <= 4; c++ {
		c := c
		think := time.Duration(wl.Intn(200)) * time.Microsecond
		burst := 1 + wl.Intn(3)
		env.Go("client", func(p *sim.Proc) {
			for round := 0; round < 12; round++ {
				var ks []*Kernel
				for i := 0; i < burst; i++ {
					ks = append(ks, submit(c))
				}
				for _, k := range ks {
					k.Done.Wait(p)
				}
				p.Sleep(think)
			}
		})
	}
	// Per-batch streams: each batch gets a fresh stream ID, closed early
	// (kernels still queued) on odd batches and after completion on even.
	env.Go("batches", func(p *sim.Proc) {
		for b := 0; b < 60; b++ {
			id, n, early := 1000+b, 1+wl.Intn(3), b%2 == 1
			gap := time.Duration(wl.Intn(250)) * time.Microsecond
			env.Go("batch", func(q *sim.Proc) {
				var ks []*Kernel
				for i := 0; i < n; i++ {
					ks = append(ks, submit(id))
				}
				if early {
					dev.CloseStream(id)
				}
				for _, k := range ks {
					k.Done.Wait(q)
				}
				if !early {
					dev.CloseStream(id)
				}
			})
			p.Sleep(gap)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	dh := fnv.New64a()
	for _, s := range rec.Spans() {
		if s.Name != "h2d" {
			continue
		}
		k := kernels[s.Req]
		put(dh, uint64(k.Stream))
		put(dh, k.seq)
		put(dh, uint64(s.Start))
	}
	return dh.Sum64(), uh.Sum64(), queuedAtCrash
}

// TestGoldenDispatchOrder pins the driver's dispatch and crash-unwind
// order. The hashes were recorded with the original full-scan driver; any
// change to pump's candidate set, candidate order or random draws, or to
// the crash's unwind order, moves them.
func TestGoldenDispatchOrder(t *testing.T) {
	const wantDispatch, wantUnwind, wantQueued = 0x2bec578939a8e20e, 0xcc3b6364b1a01b32, 51
	d, u, n := goldenDispatch(t)
	if n < 3 {
		t.Fatalf("%d kernels queued at the crash; the workload must crash with work queued", n)
	}
	if d != wantDispatch || u != wantUnwind || n != wantQueued {
		t.Fatalf("dispatch hash %#x, unwind hash %#x, %d queued at crash; want %#x, %#x, %d",
			d, u, n, uint64(wantDispatch), uint64(wantUnwind), wantQueued)
	}
	d2, u2, _ := goldenDispatch(t)
	if d2 != d || u2 != u {
		t.Fatal("same-seed runs dispatched differently")
	}
}
