package cluster

import (
	"math/rand"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/overload"
)

// TestSlimFleetDeviceStateBounded: a 64-device slim fleet retires thousands
// of batches, each on its own GPU stream and job, while every fourth device
// crashes and restarts mid-run. Once the run quiesces no device may still
// hold a stream or an owner's accounting: per-batch state must not outlive
// its batch, so device memory is bounded by live work.
func TestSlimFleetDeviceStateBounded(t *testing.T) {
	const devices, requests = 64, 20_000
	specs := make([]gpu.Spec, devices)
	plans := make([]*faults.Plan, devices)
	for i := range specs {
		specs[i] = gpu.GTX1080Ti
		if i%4 == 0 {
			at := time.Duration(20+i/4) * time.Millisecond
			plans[i] = &faults.Plan{Crashes: []faults.CrashEvent{{At: at, Recovery: 5 * time.Millisecond}}}
		}
	}
	c, err := NewSharded(Config{
		Seed:         5,
		Devices:      specs,
		Faults:       plans,
		Route:        LeastOutstanding,
		MaxBatch:     16,
		BatchTimeout: 2 * time.Millisecond,
		Slim:         true,
		Workers:      2,
	}, Sharded)
	if err != nil {
		t.Fatal(err)
	}
	env := c.FrontEnv()
	rng := rand.New(rand.NewSource(9))
	const rate = 2000.0 * devices
	n := 0
	var gen func()
	gen = func() {
		if _, err := c.SubmitEvent(model.Micro, overload.Interactive); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		if n++; n < requests {
			env.Schedule(time.Duration(rng.ExpFloat64()*float64(time.Second)/rate), gen)
		}
	}
	env.Schedule(0, gen)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	st := c.Stats()
	if st.Crashes != devices/4 || st.Revives != devices/4 {
		t.Fatalf("crashes/revives = %d/%d, want %d/%d", st.Crashes, st.Revives, devices/4, devices/4)
	}
	if st.Requests != requests || st.Completed+st.Failed != requests {
		t.Fatalf("request accounting wrong: %d submitted, %d completed, %d failed", st.Requests, st.Completed, st.Failed)
	}
	batches := 0
	for i := 0; i < devices; i++ {
		ds := c.Server(i).Device().Stats()
		batches += c.Server(i).Stats().Batches
		if ds.Streams != 0 || ds.Owners != 0 {
			t.Errorf("device %d holds %d streams and %d owners after quiescing, want 0 and 0", i, ds.Streams, ds.Owners)
		}
	}
	if batches < requests/16 {
		t.Fatalf("only %d batches ran; the fleet must retire many per-batch streams", batches)
	}
}

// TestLLMFleetDeviceOwnersBounded: a disaggregated LLM fleet under KV
// pressure, TTFT expiry and a crash on each pool ends every request on some
// replica — completion, hand-off, failure or expiry. Each of those paths
// must release the request's device owner, so no replica still holds owner
// accounting once the run quiesces.
func TestLLMFleetDeviceOwnersBounded(t *testing.T) {
	weights, err := model.LLMWeightsBytes(model.LLMTiny)
	if err != nil {
		t.Fatal(err)
	}
	decode := gpu.GTX1080Ti
	decode.Name = "decode-cell"
	decode.MemoryBytes = weights + 640<<10 // a few sequences of cache at most
	crash := func(at time.Duration) *faults.Plan {
		return &faults.Plan{Crashes: []faults.CrashEvent{{At: at, Recovery: 5 * time.Millisecond}}}
	}
	c, err := NewLLM(LLMConfig{
		Seed:            21,
		Model:           model.LLMTiny,
		PrefillReplicas: 2,
		DecodeReplicas:  2,
		DecodeSpec:      decode,
		TTFTDeadline:    5 * time.Millisecond,
		Faults:          []*faults.Plan{crash(6 * time.Millisecond), nil, nil, crash(9 * time.Millisecond)},
		Slim:            true,
		Workers:         2,
	}, Sharded)
	if err != nil {
		t.Fatal(err)
	}
	env := c.FrontEnv()
	rng := rand.New(rand.NewSource(4))
	const requests = 400
	for i := 0; i < requests; i++ {
		at := time.Duration(i) * 100 * time.Microsecond
		class := overload.Class(rng.Intn(int(overload.NumClasses)))
		prompt, output := 16+rng.Intn(96), 16+rng.Intn(96)
		env.Schedule(at, func() { c.SubmitEvent(class, prompt, output) })
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	st := c.Stats()
	if st.Requests != requests {
		t.Fatalf("requests = %d, want %d", st.Requests, requests)
	}
	if st.Crashes != 2 || st.Preemptions == 0 || st.Expired == 0 {
		t.Fatalf("fleet must crash twice, preempt and expire: crashes=%d preemptions=%d expired=%d",
			st.Crashes, st.Preemptions, st.Expired)
	}
	for i := 0; i < c.Devices(); i++ {
		if n := c.Server(i).Device().Stats().Owners; n != 0 {
			t.Errorf("device %d holds %d owners after quiescing, want 0", i, n)
		}
	}
}
