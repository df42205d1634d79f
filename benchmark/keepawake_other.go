//go:build !linux

package main

// keepAwake does nothing where there is no SCHED_IDLE to spin under (see
// keepawake_linux.go): the run is as valid, only noisier on a virtual
// machine.
func keepAwake() (stop func(), err error) { return func() {}, nil }

func spin(int) {}
