package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule; 0 for no
// samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample is a reading of process-wide counters. It is taken only at
// the edges of a window, so the request path carries no instrumentation.
type runtimeSample struct {
	wall       time.Time
	gcCPU      float64 // /cpu/classes/gc/total:cpu-seconds
	usedCPU    float64 // /cpu/classes/total − /cpu/classes/idle
	allocBytes float64 // /gc/heap/allocs:bytes
	procCPU    float64 // user + system CPU-seconds of the process
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	s := runtimeSample{
		wall:       time.Now(),
		gcCPU:      val(0),
		usedCPU:    val(1) - val(2),
		allocBytes: val(3),
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return s
}

// runtimeDelta is the change of the counters over one window.
type runtimeDelta struct {
	wall                       time.Duration
	gcCPU, usedCPU, allocBytes float64
	procCPU                    float64
}

func (s runtimeSample) sub(before runtimeSample) runtimeDelta {
	return runtimeDelta{
		wall:       s.wall.Sub(before.wall),
		gcCPU:      s.gcCPU - before.gcCPU,
		usedCPU:    s.usedCPU - before.usedCPU,
		allocBytes: s.allocBytes - before.allocBytes,
		procCPU:    s.procCPU - before.procCPU,
	}
}

// gcFrac is the share of the CPU time the process used that went to GC.
func (d runtimeDelta) gcFrac() float64 {
	if d.usedCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.usedCPU
}

// cpuUtil is CPU-seconds used ÷ (wall seconds × GOMAXPROCS).
func (d runtimeDelta) cpuUtil() float64 {
	return d.procCPU / (d.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// heapLiveMB forces a GC and returns the bytes held by live heap objects,
// in MB.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
