package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is not modified.
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

// cpuTime is this process's CPU time so far, user plus system. The
// simulations are timed in it, not in wall time: on a shared virtual
// machine, time the hypervisor gives this CPU to other guests (steal)
// stretched whole runs' wall time by up to a third while their CPU
// time moved by a few percent. A simulation runs on one goroutine, so
// its CPU time is its wall time on an idle host plus the collector's
// work beside it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return frac(s, float64(len(xs)))
}
