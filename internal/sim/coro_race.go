//go:build race

package sim

import "runtime"

// newCoroutine is the race-detector build of the coroutine in coro.go, with
// the same contract: a goroutine that hands control back and forth over
// channels. The race runtime does not reclaim the detector state of an
// iter.Pull coroutine when it exits (about 5 KB each), which adds up to
// gigabytes over the procs a test binary spawns; an exiting goroutine's is
// reclaimed.
func newCoroutine(body func(suspend func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	wake := make(chan bool) // true: run on; false: stop was called
	back := make(chan struct{})
	var started, stopped, done, goexit bool
	var panicVal any
	suspend := func(struct{}) bool {
		if stopped {
			return false
		}
		back <- struct{}{}
		return <-wake
	}
	run := func() {
		returned := false
		defer func() {
			if !returned {
				if panicVal = recover(); panicVal == nil {
					goexit = true
				}
			}
			done = true
			back <- struct{}{}
		}()
		if <-wake {
			body(suspend)
		}
		returned = true
	}
	switchIn := func(v bool) {
		if !started {
			started = true
			go run()
		}
		wake <- v
		<-back
		if panicVal != nil {
			panic(panicVal)
		}
		if goexit {
			runtime.Goexit()
		}
	}
	resume = func() (struct{}, bool) {
		if done {
			return struct{}{}, false
		}
		switchIn(true)
		return struct{}{}, !done
	}
	stop = func() {
		if done || stopped {
			return
		}
		stopped = true
		if !started {
			done = true
			return
		}
		switchIn(false)
	}
	return resume, stop
}
