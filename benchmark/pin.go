package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines the process to a single processor: GOMAXPROCS = 1
// and every thread bound to the highest-numbered CPU the process may use
// (CPU 0 takes most interrupts). It returns that CPU, or −1 when the
// kernel refused and only GOMAXPROCS holds.
//
// Every workload is measured per core because that is the only
// configuration this class of host measures steadily: on the 2-vCPU build
// host a burst's latency depends on whether the hypervisor happens to run
// both vCPUs at once (identical code: p50 25–57 ms across twelve runs,
// quartile spread 24 %; pinned: 45–49 ms, spread 5 %; CPU per request
// 16 % → 1 %). README.md has the numbers.
func pinToOneCPU() int {
	runtime.GOMAXPROCS(1)
	var mask [16]uint64 // 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return -1
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return -1
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// The runtime has already started threads; bind each one. Threads
	// started later inherit the mask from the thread that creates them.
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return -1
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&mask))); errno != 0 && errno != syscall.ESRCH {
			fmt.Fprintf(os.Stderr, "benchmark: cannot bind thread %d to CPU %d: %v\n", tid, cpu, errno)
			return -1
		}
	}
	return cpu
}
