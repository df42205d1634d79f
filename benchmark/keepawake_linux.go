//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// On a virtual machine an idle virtual CPU is halted, and waking it costs
// tens of microseconds that vary with the host. A workload that leaves
// the CPUs partly idle — one writer waiting on a chain of loopback RPCs —
// pays that cost on every hop: publish_durable ran a third slower and
// several times noisier (a spread between runs of 23–36 %, against 3 %)
// than with the CPUs kept awake. So for the length of a run the
// benchmark keeps one busy-looping child per CPU at the lowest scheduling
// priority: they use only cycles nothing else wants, and no CPU halts.

// spinLimit ends a spinner whatever happened to its parent: longer than
// any run (an A/A of all four workloads takes about three minutes), but
// not for ever.
const spinLimit = 20 * time.Minute

// keepAwake starts the spinners and returns the function that stops them
// and waits for them to exit.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var children []*exec.Cmd
	stop = func() {
		for _, c := range children {
			_ = c.Process.Kill()
			_ = c.Wait() // the kill is the expected cause of the error
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(self, "-spin", fmt.Sprint(os.Getpid()))
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return nil, err
		}
		children = append(children, c)
	}
	return stop, nil
}

// spin is a spinner's whole life: lowest priority, busy until the limit
// or until the parent is gone.
func spin(parent int) {
	runtime.LockOSThread() // the scheduling policy below is per thread
	// SCHED_IDLE (5) with priority 0: below every nice level. If the
	// kernel refuses, nice 19 is the next best.
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, 5, uintptr(unsafe.Pointer(&param))); errno != 0 {
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // at worst it spins at normal priority
	}
	runtime.GOMAXPROCS(1)
	for deadline := time.Now().Add(spinLimit); time.Now().Before(deadline) && os.Getppid() == parent; {
		for i := 0; i < 1<<22; i++ {
			sink += i
		}
	}
}
