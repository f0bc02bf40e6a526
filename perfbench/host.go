package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// hostSample is a point-in-time reading of the process's own counters.
type hostSample struct {
	wall     time.Time
	cpu      time.Duration // user + sys
	allocB   uint64        // cumulative heap bytes allocated
	allocObj uint64        // cumulative heap objects allocated
	gcCycles uint64
	gcCPU    float64 // cumulative GC CPU seconds (runtime estimate)
}

var hostMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// readAllocs returns the cumulative heap bytes and objects allocated.
func readAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: hostMetrics[0]}, {Name: hostMetrics[1]}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func sampleHost() hostSample {
	s := make([]metrics.Sample, len(hostMetrics))
	for i, n := range hostMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return hostSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:   s[0].Value.Uint64(),
		allocObj: s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
	}
}

// peakRSSMiB returns the process's maximum resident set size (Linux
// reports it in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th cut of 4, exclusive method
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
