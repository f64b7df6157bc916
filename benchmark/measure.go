package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usagePoint is one reading of everything that is metered as a delta:
// process CPU, allocator totals and the engine's counters.
type usagePoint struct {
	cpu     time.Duration
	mallocs uint64
	alloc   uint64
	gcCPU   float64 // the runtime's own estimate of CPU seconds spent collecting
	allCPU  float64 // ... and of all CPU seconds, on the same scale
	ctr     counters
}

// usage accumulates deltas between readings over the measured segments
// of a workload (everything between segments — oracle re-runs, set-up of
// the next watch schedule, heap readings — stays out).
type usage struct {
	Ops     int
	Busy    time.Duration // time inside operations
	CPU     time.Duration
	Mallocs uint64
	Alloc   uint64
	GCCPU   float64 // seconds, runtime estimate
	AllCPU  float64 // seconds, runtime estimate
	Ctr     counters
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func readUsage(d *deployment) usagePoint {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := usagePoint{cpu: cpuTime(), mallocs: ms.Mallocs, alloc: ms.TotalAlloc}
	classes := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(classes)
	if classes[0].Value.Kind() == metrics.KindFloat64 && classes[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.allCPU = classes[0].Value.Float64(), classes[1].Value.Float64()
	}
	if d != nil {
		p.ctr = d.counters()
	}
	return p
}

// add books the segment between two readings.
func (u *usage) add(a, b usagePoint, ops int, busy time.Duration) {
	u.Ops += ops
	u.Busy += busy
	u.CPU += b.cpu - a.cpu
	u.Mallocs += b.mallocs - a.mallocs
	u.Alloc += b.alloc - a.alloc
	u.GCCPU += b.gcCPU - a.gcCPU
	u.AllCPU += b.allCPU - a.allCPU
	for i := range u.Ctr {
		u.Ctr[i] += b.ctr[i] - a.ctr[i]
	}
}

// merge adds another accumulation to u.
func (u *usage) merge(o usage) {
	u.Ops += o.Ops
	u.Busy += o.Busy
	u.CPU += o.CPU
	u.Mallocs += o.Mallocs
	u.Alloc += o.Alloc
	u.GCCPU += o.GCCPU
	u.AllCPU += o.AllCPU
	for i := range u.Ctr {
		u.Ctr[i] += o.Ctr[i]
	}
}

// heapMiB returns the live heap after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ---------------------------------------------------------------------------
// Order statistics.

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of v by the
// nearest-rank rule; 0 for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile of
// v as a share of its median, the quartiles placed as Python's
// statistics.quantiles(v, n=4) places them; 0 when v has fewer than two
// values or a zero median.
func quartileSpread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(v)
	q := func(k int) float64 { // exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
