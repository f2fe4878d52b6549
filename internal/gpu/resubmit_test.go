package gpu

import (
	"errors"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/sim"
)

// resubmitOutcome is what a second submission looks like from outside the
// device(s): when it completed, how, and what the devices accounted.
type resubmitOutcome struct {
	done         sim.Time
	err          error
	kernels      []int
	faults       []int
	busy         []time.Duration
	errAtSubmit  error
	doneAtSubmit bool
}

// runResubmit submits a first kernel to devs[0], lets between run once it
// has completed (or failed), then submits a second kernel to devs[len-1]
// and waits for it. With reuse the second submission is the first kernel
// object itself; otherwise it is a fresh kernel with the same fields.
func runResubmit(t *testing.T, reuse bool, plan *faults.Plan, specs []Spec, between func(p *sim.Proc, devs []*Device)) resubmitOutcome {
	t.Helper()
	env := sim.NewEnv(1)
	devs := make([]*Device, len(specs))
	for i, s := range specs {
		devs[i] = New(env, s)
		if plan != nil {
			devs[i].InjectFaults(faults.New(7, *plan))
		}
	}
	var out resubmitOutcome
	env.Go("submitter", func(p *sim.Proc) {
		first := &Kernel{Owner: 1, Stream: 1, Duration: 10 * time.Millisecond, Occupancy: 1}
		devs[0].Submit(first)
		if between != nil {
			between(p, devs)
		}
		first.Done.Wait(p)
		second := &Kernel{Owner: 1, Stream: 1, Duration: 10 * time.Millisecond, Occupancy: 1}
		if reuse {
			second = first
		}
		devs[len(devs)-1].Submit(second)
		out.errAtSubmit, out.doneAtSubmit = second.Err, second.Done.Triggered()
		second.Done.Wait(p)
		out.done, out.err = p.Now(), second.Err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	for _, d := range devs {
		st := d.Stats()
		out.kernels = append(out.kernels, st.KernelsRun)
		out.faults = append(out.faults, st.KernelFaults)
		out.busy = append(out.busy, st.TotalBusy)
	}
	return out
}

// TestResubmittedKernelBehavesAsFresh: a kernel submitted again once its
// Done fired runs exactly like a new kernel with the same fields — after a
// success, after a transient fault, after its device crashed and revived
// (with its pre-crash completion still queued), and on a second device.
func TestResubmittedKernelBehavesAsFresh(t *testing.T) {
	crashRevive := func(p *sim.Proc, devs []*Device) {
		p.Sleep(time.Millisecond)
		devs[0].crash(0)
		p.Sleep(time.Millisecond)
		devs[0].Revive(500 * time.Microsecond)
		p.Sleep(time.Millisecond)
	}
	cases := []struct {
		name    string
		plan    *faults.Plan
		specs   []Spec
		between func(p *sim.Proc, devs []*Device)
		wantErr error
	}{
		{name: "after-success", specs: []Spec{GTX1080Ti}},
		{name: "after-transient-fault", plan: &faults.Plan{KernelFailRate: 1}, specs: []Spec{GTX1080Ti}, wantErr: faults.ErrKernelFault},
		{name: "after-crash-revive", specs: []Spec{GTX1080Ti}, between: crashRevive},
		{name: "second-device", specs: []Spec{GTX1080Ti, TitanX}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := runResubmit(t, false, tc.plan, tc.specs, tc.between)
			reused := runResubmit(t, true, tc.plan, tc.specs, tc.between)
			if reused.errAtSubmit != nil || reused.doneAtSubmit {
				t.Fatalf("resubmitted kernel not re-armed: Err=%v, Done triggered=%v", reused.errAtSubmit, reused.doneAtSubmit)
			}
			if !errors.Is(reused.err, tc.wantErr) || (tc.wantErr == nil && reused.err != nil) {
				t.Fatalf("resubmitted kernel finished with %v, want %v", reused.err, tc.wantErr)
			}
			if reused.done != fresh.done || reused.err != fresh.err {
				t.Fatalf("resubmitted kernel completed at %v with %v; a fresh kernel completes at %v with %v",
					reused.done, reused.err, fresh.done, fresh.err)
			}
			for i := range fresh.kernels {
				if reused.kernels[i] != fresh.kernels[i] || reused.faults[i] != fresh.faults[i] || reused.busy[i] != fresh.busy[i] {
					t.Fatalf("device %d: kernels/faults/busy %d/%d/%v with reuse, %d/%d/%v fresh", i,
						reused.kernels[i], reused.faults[i], reused.busy[i], fresh.kernels[i], fresh.faults[i], fresh.busy[i])
				}
			}
		})
	}
}

// TestSubmitInFlightKernelPanics: a kernel may only be submitted again once
// its Done has fired.
func TestSubmitInFlightKernelPanics(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, GTX1080Ti)
	k := &Kernel{Owner: 1, Stream: 1, Duration: time.Millisecond, Occupancy: 1}
	dev.Submit(k)
	defer func() {
		if recover() == nil {
			t.Fatal("submitting a queued kernel again did not panic")
		}
	}()
	dev.Submit(k)
}
