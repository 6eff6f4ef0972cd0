package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Linux clock ids for clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread only
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// Both clocks exist on every Linux this benchmark targets; a
		// failure here means the measurements would be meaningless.
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time consumed so far by every thread of the
// process: application goroutines, the in-process collector's
// goroutines, and the garbage collector alike.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// timeKernel runs the reference kernel once and returns the CPU time of
// the thread that ran it, pinned so the reading covers exactly the run.
func timeKernel(k *refKernel) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuClock(clockThreadCPU)
	k.run()
	return cpuClock(clockThreadCPU) - t0
}
