package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start: package initialization runs
// before main, a millisecond or so after exec.
var processStart = time.Now()

// cpuSeconds returns the user+system CPU time the process has consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// region is a timed span of the run with the process-level counters
// sampled at both ends.
type region struct {
	start    time.Time
	stop     time.Time
	cpu0     float64
	mem0     runtime.MemStats
	Wall     float64 // seconds
	CPU      float64 // seconds, user+sys
	Mallocs  uint64
	GCs      uint32
	GCPause  float64 // seconds
	HeapLive float64 // MB at the end of the region
}

// ReadMemStats stops the world, so regions sample it only at their ends.
func beginRegion() *region {
	r := &region{}
	runtime.ReadMemStats(&r.mem0)
	r.cpu0 = cpuSeconds()
	r.start = time.Now()
	return r
}

func (r *region) end() {
	r.stop = time.Now()
	r.Wall = r.stop.Sub(r.start).Seconds()
	r.CPU = cpuSeconds() - r.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.Mallocs = m.Mallocs - r.mem0.Mallocs
	r.GCs = m.NumGC - r.mem0.NumGC
	r.GCPause = float64(m.PauseTotalNs-r.mem0.PauseTotalNs) / 1e9
	r.HeapLive = float64(m.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile (nearest rank) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile32 is quantile over the compact samples the hot loops keep.
func quantile32(xs []int32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int32(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[min(int(q*float64(len(s))), len(s)-1)])
}

// nsQuantileUS is the q-quantile of nanosecond samples, in microseconds.
func nsQuantileUS(ns []int32, q float64) float64 { return quantile32(ns, q) / 1e3 }

func sumNS(ns []int32) float64 {
	var t int64
	for _, v := range ns {
		t += int64(v)
	}
	return float64(t)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
