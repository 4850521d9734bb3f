package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, the same rule as Python's statistics.quantiles
// with method="inclusive". It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far, from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// goSample is a snapshot of the runtime counters the go.* layer metrics
// are differences of.
type goSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	pauses     *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		g.pauses = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return g
}

// goDelta accumulates runtime counter differences over the measured
// phases of a run.
type goDelta struct {
	allocBytes    uint64
	gcCPU, allCPU float64
	pauseCounts   []uint64
	pauseBuckets  []float64
}

func (d *goDelta) add(a, b goSample) {
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCPU += b.gcCPU - a.gcCPU
	d.allCPU += b.totalCPU - a.totalCPU
	if a.pauses == nil || b.pauses == nil {
		return
	}
	if d.pauseCounts == nil {
		d.pauseCounts = make([]uint64, len(b.pauses.Counts))
		d.pauseBuckets = b.pauses.Buckets
	}
	for i := range b.pauses.Counts {
		d.pauseCounts[i] += b.pauses.Counts[i] - a.pauses.Counts[i]
	}
}

// pauseQuantileUS returns the q-quantile GC pause in µs, read as the upper
// edge of the histogram bucket holding it (0 when no pause happened).
func (d *goDelta) pauseQuantileUS(q float64) float64 {
	var n uint64
	for _, c := range d.pauseCounts {
		n += c
	}
	if n == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range d.pauseCounts {
		seen += c
		if seen >= want {
			edge := d.pauseBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = d.pauseBuckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}
