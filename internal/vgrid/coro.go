//go:build go1.23

package vgrid

import "iter"

// pullProc makes a process body a coroutine of whoever calls next: next
// switches to the body until it calls yield or returns, with no channel
// operation and no run-queue round trip; stop ends an unfinished coroutine (a
// body that never started does not run, a suspended one sees yield return
// false). The one iter call site: go.mod stays at go 1.22 with bench/go.mod,
// and the build constraint gives this file the language version iter needs.
func pullProc(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
