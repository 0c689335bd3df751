package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines this process — every thread it has and will have, and
// every process it starts from now on — to one of the CPUs it may run on, and
// returns which. The server, the twin and the driver then take turns on that
// CPU, as the parties of a closed loop over one connection do anyway.
//
// Left to the scheduler on this two-vCPU guest, the two ends of a ping-pong
// land on different vCPUs, every reply has to wake a halted vCPU through the
// hypervisor, and what that costs flips between two regimes every second or
// two: the same hot_set code ran 100 ms spells at 3 000 and at 12 000
// statements a second within one run. On one CPU a reply is a context
// switch, the spells agree within a tenth, and the statements cost less than
// half the CPU. The Go runtime sizes GOMAXPROCS from the affinity mask, so
// the children run with one P; this process, already started, is told.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // 1024 CPUs
	size := uintptr(len(mask) * 8)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %v", errno)
	}
	cpu := -1
	for i, word := range mask {
		if word != 0 {
			cpu = i*64 + 63 - bits.LeadingZeros64(word) // the highest allowed: CPU 0 takes most interrupts
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("empty affinity mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// Threads are pinned one by one; a thread started meanwhile inherits its
	// parent's mask, so a second pass catches any the first one missed.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, task := range tasks {
			tid, err := strconv.Atoi(task.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread ended since the listing.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 && errno != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity: %v", errno)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}
