package main

import (
	"cmp"
	"io/fs"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantileSorted returns the q-quantile of an ascending slice (nearest rank).
func quantileSorted[T cmp.Ordered](s []T, q float64) T {
	if len(s) == 0 {
		var zero T
		return zero
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median sorts a copy of v and returns its middle value (mean of the middle
// two for even lengths), 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// bestQuartile returns the value a quarter of the way in from the good end
// of v: the 3rd highest of 10 when higher is better, else the 3rd lowest.
func bestQuartile(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if higherIsBetter {
		return s[len(s)-1-len(s)/4]
	}
	return s[len(s)/4]
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInUse collects garbage and reports the live heap.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dirUsage sums the regular files under dir.
func dirUsage(dir string) (bytes int64, files int, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files, err
}

// scaled applies the run's scale to a committed count, never below floor.
func scaled(base int, scale float64, floor int) int {
	n := int(float64(base)*scale + 0.5)
	if n < floor {
		n = floor
	}
	return n
}
