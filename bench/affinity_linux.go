package main

import (
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 processors.
type cpuMask [16]uint64

func schedAffinity(call uintptr, m *cpuMask) bool {
	_, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}

// allowedCPUs lists the processors this process may run on.
func allowedCPUs() []int {
	var m cpuMask
	if !schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &m) {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// startOn starts cmd confined to one processor (any, if cpu < 0): the forking thread
// narrows its own affinity, which the child inherits, and widens it again
// once the child exists. If the kernel refuses, the child starts wherever
// this process may run.
func startOn(cmd *exec.Cmd, cpu int) error {
	if cpu < 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old, one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &old) && schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one) {
		defer schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &old)
	}
	return cmd.Start()
}
