package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB is the largest resident set the process has had so far, in MB:
// the kernel's high-water mark (getrusage ru_maxrss, in KiB on Linux), so
// nothing samples it while the workload runs.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is a snapshot of process-wide work counters.
type counters struct {
	mallocs, bytes uint64
	cpu            time.Duration
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu: cpuTime()}
}

// release drops garbage and hands freed memory back to the OS, so one
// set-up's world does not sit under the next one's peak.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// hostInfo describes the machine: core count and CPU model.
func hostInfo() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version())
}
