package gpu

import (
	"errors"
	"testing"

	"olympian/internal/sim"
)

func kvTestDevice(t *testing.T, mem int64) *Device {
	t.Helper()
	env := sim.NewEnv(1)
	spec := GTX1080Ti
	spec.MemoryBytes = mem
	return New(env, spec)
}

func TestKVCacheGrowReleaseAccounting(t *testing.T) {
	dev := kvTestDevice(t, 1<<20)
	kc := NewKVCache(dev, 16, 64) // block = 1 KiB

	if err := kc.Grow(1, 10); err != nil { // 1 block
		t.Fatal(err)
	}
	if err := kc.Grow(1, 16); err != nil { // still 1 block
		t.Fatal(err)
	}
	if got := kc.Stats().BlocksInUse; got != 1 {
		t.Fatalf("blocks in use = %d, want 1", got)
	}
	if err := kc.Grow(1, 17); err != nil { // crosses into block 2
		t.Fatal(err)
	}
	if err := kc.Grow(2, 40); err != nil { // 3 blocks
		t.Fatal(err)
	}
	st := kc.Stats()
	if st.BlocksInUse != 5 || st.Seqs != 2 || st.Grown != 5 {
		t.Fatalf("stats = %+v, want 5 blocks / 2 seqs / 5 grown", st)
	}
	if dev.MemoryInUse() != 5*kc.BlockBytes() {
		t.Fatalf("device memory %d, want %d", dev.MemoryInUse(), 5*kc.BlockBytes())
	}
	if kc.SeqTokens(1) != 17 || kc.SeqTokens(2) != 40 {
		t.Fatalf("seq tokens = %d, %d", kc.SeqTokens(1), kc.SeqTokens(2))
	}

	kc.Release(1)
	kc.Release(1) // double release is a no-op
	st = kc.Stats()
	if st.BlocksInUse != 3 || st.Seqs != 1 || st.Released != 2 {
		t.Fatalf("post-release stats = %+v", st)
	}
	kc.Release(2)
	if got := dev.MemoryInUse(); got != 0 {
		t.Fatalf("device memory %d after full release, want 0", got)
	}
	if st := kc.Stats(); st.BlocksInUse != 0 || st.Seqs != 0 {
		t.Fatalf("leaked cache: %+v", st)
	}
}

func TestKVCacheCompetesWithWeights(t *testing.T) {
	dev := kvTestDevice(t, 10<<10) // 10 KiB device
	if err := dev.Alloc(8 << 10); err != nil {
		t.Fatal(err) // resident "weights"
	}
	kc := NewKVCache(dev, 16, 64) // 1 KiB blocks

	if !kc.CanFit(32) {
		t.Fatalf("2 KiB of cache must fit beside 8 KiB of weights")
	}
	if err := kc.Grow(7, 32); err != nil {
		t.Fatal(err)
	}
	if kc.CanFit(1) {
		t.Fatalf("device is full; CanFit must say no")
	}
	if err := kc.Grow(8, 1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Grow past device memory: err = %v, want ErrOutOfMemory", err)
	}
	st := kc.Stats()
	if st.AllocFailures != 1 {
		t.Fatalf("alloc failures = %d, want 1", st.AllocFailures)
	}
	if st.BlocksInUse != 2 {
		t.Fatalf("failed Grow must not leak partial blocks: %+v", st)
	}
	// Freeing the victim's cache makes room again.
	kc.Release(7)
	if err := kc.Grow(8, 1); err != nil {
		t.Fatalf("Grow after release: %v", err)
	}
}

// TestKVCacheDeniedGrowAllocatesNothing: a KV-starved replica retries a
// denied Grow on every decode step, so the denial must not touch the heap.
func TestKVCacheDeniedGrowAllocatesNothing(t *testing.T) {
	dev := kvTestDevice(t, 4<<10)
	kc := NewKVCache(dev, 16, 64) // 1 KiB blocks
	if err := kc.Grow(1, 64); err != nil {
		t.Fatal(err) // fills the device
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := kc.Grow(2, 16); err != ErrOutOfMemory {
			t.Fatalf("err = %v, want ErrOutOfMemory unwrapped", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("denied Grow allocates %v times per call, want 0", allocs)
	}
	if st := kc.Stats(); st.AllocFailures != 101 || st.BlocksInUse != 4 {
		t.Fatalf("stats = %+v, want 101 failures and 4 blocks in use", st)
	}
}
