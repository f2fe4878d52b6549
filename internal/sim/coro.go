//go:build go1.23 && !race

package sim

import "iter"

// newCoroutine wraps body in a runtime coroutine. resume switches into it
// and returns when body calls suspend or returns; suspend switches back to
// the resumer and reports false once stop has been called. stop unwinds a
// suspended body (suspend returns false) and discards one never resumed. A
// panic in body resurfaces from the resume (or stop) call that ran it.
func newCoroutine(body func(suspend func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
