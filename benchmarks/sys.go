package main

import (
	"runtime"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's resource counters; the
// difference of two readings brackets a measured window.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system, whole process
	alloc   uint64        // MemStats.TotalAlloc
	mallocs uint64
	gcs     uint32
	heap    uint64 // MemStats.HeapAlloc
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		heap:    ms.HeapAlloc,
	}
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB, the same figure as VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
