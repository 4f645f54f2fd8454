package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (the default "exclusive" method),
// so spreads computed here match the ones the acceptance check computes.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tail returns the largest value of xs that a quarter of the samples, but
// at most ten, lie above: the eleventh-largest value from 40 samples on
// (about p99 at 1,000), p75 by nearest rank below. A run of a dozen
// partition calls has no percentile with ten samples beyond it, and its
// p90, one sample from the maximum, spread between seeds almost as wide
// as the bound on it. For no samples, 0.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[len(s)-1-min(len(s)/4, 10)]
}

// vmHWM reads the process's peak resident set in bytes from
// /proc/self/status; 0 where unavailable.
func vmHWM() int64 { return readProcStatus("VmHWM:") }

func readProcStatus(key string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) >= 2 && fs[0] == key {
			kb, err := strconv.ParseInt(fs[1], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's RSS
// high-water mark to the current RSS, so the next vmHWM read covers only
// what happens after this call. Where the reset is unavailable the mark
// keeps covering the whole process.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing "5" to clear_refs resets VmHWM (Linux >= 4.0); an error
	// leaves the process-wide peak, which is still an upper bound.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

const mb = 1 << 20

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports per operation.
type runtimeSample struct {
	allocBytes, mallocs, gcCycles float64
	gcCPU, totalCPU               float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), mallocs: v(1), gcCycles: v(2), gcCPU: v(3), totalCPU: v(4)}
}

// addRuntimeMetrics reports the runtime counters accumulated between two
// samples, per operation.
func addRuntimeMetrics(ms metricSet, before, after runtimeSample, ops int) {
	if ops < 1 {
		ops = 1
	}
	n := float64(ops)
	ms.set("runtime.alloc_mb_per_op", (after.allocBytes-before.allocBytes)/mb/n)
	ms.set("runtime.mallocs_per_op", (after.mallocs-before.mallocs)/n)
	ms.set("runtime.gc_per_op", (after.gcCycles-before.gcCycles)/n)
	ms.set("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
