// Package prochost implements the sensors.Host interface for the live
// machine the library runs on, reading Linux's /proc/loadavg and /proc/stat —
// the modern equivalents of the uptime and vmstat readings the paper's
// sensors used — and running real spinning probe processes measured with
// getrusage, exactly as the NWS CPU sensor did.
//
// The package builds on every platform. New fails where /proc is missing,
// and the probe reads 0 off Linux, whose getrusage(RUSAGE_THREAD) it needs.
//
// Availability on a live multi-core host is expressed as the fraction of one
// CPU a full-priority thread can obtain, matching the paper's uniprocessor
// setting.
package prochost

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// parseCount parses one numeric /proc field. Loads and jiffy counters are
// finite and non-negative; anything else is a malformed file, refused here
// so sums of fields stay well defined.
func parseCount(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err == nil && (v < 0 || math.IsInf(v, 0) || math.IsNaN(v)) {
		err = fmt.Errorf("%q is not a finite non-negative count", field)
	}
	return v, err
}

// LoadInfo is the part of /proc/loadavg the sensors read.
type LoadInfo struct {
	Load1   float64
	Running int // runnable entities
}

// ParseLoadAvg parses the content of /proc/loadavg, e.g.
// "0.52 0.58 0.59 2/345 12345".
func ParseLoadAvg(content string) (LoadInfo, error) {
	fields := strings.Fields(content)
	if len(fields) < 4 {
		return LoadInfo{}, fmt.Errorf("prochost: malformed loadavg %q", content)
	}
	var li LoadInfo
	var err error
	if li.Load1, err = parseCount(fields[0]); err != nil {
		return LoadInfo{}, fmt.Errorf("prochost: loadavg load1: %w", err)
	}
	// The 5- and 15-minute loads and the entity total are checked, not kept.
	if _, err = parseCount(fields[1]); err != nil {
		return LoadInfo{}, fmt.Errorf("prochost: loadavg load5: %w", err)
	}
	if _, err = parseCount(fields[2]); err != nil {
		return LoadInfo{}, fmt.Errorf("prochost: loadavg load15: %w", err)
	}
	rt := strings.SplitN(fields[3], "/", 2)
	if len(rt) != 2 {
		return LoadInfo{}, fmt.Errorf("prochost: malformed run-queue field %q", fields[3])
	}
	if li.Running, err = strconv.Atoi(rt[0]); err != nil {
		return LoadInfo{}, fmt.Errorf("prochost: run-queue running: %w", err)
	}
	if _, err = strconv.Atoi(rt[1]); err != nil {
		return LoadInfo{}, fmt.Errorf("prochost: run-queue total: %w", err)
	}
	return li, nil
}

// CountCPUs returns the number of per-CPU "cpuN" lines in /proc/stat
// content (0 when none are present).
func CountCPUs(content string) int {
	n := 0
	for _, line := range strings.Split(content, "\n") {
		if len(line) > 4 && strings.HasPrefix(line, "cpu") && line[3] >= '0' && line[3] <= '9' {
			n++
		}
	}
	return n
}

// StatTimes is the parsed aggregate "cpu" line of /proc/stat, in jiffies.
type StatTimes struct {
	User, Nice, Sys, Idle float64
	Other                 float64 // iowait + irq + softirq + steal
}

// Total returns the sum of all accounted jiffies.
func (s StatTimes) Total() float64 { return s.User + s.Nice + s.Sys + s.Idle + s.Other }

// ParseStat parses the content of /proc/stat, extracting the aggregate
// "cpu " line. Other sums columns 5-8 (iowait, irq, softirq, steal) only:
// the kernel already counts guest and guest_nice time (columns 9-10) inside
// user and nice (proc(5)), so adding them again would count it twice.
func ParseStat(content string) (StatTimes, error) {
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "cpu ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return StatTimes{}, fmt.Errorf("prochost: malformed cpu line %q", line)
		}
		vals := make([]float64, 0, len(fields)-1)
		for _, f := range fields[1:] {
			v, err := parseCount(f)
			if err != nil {
				return StatTimes{}, fmt.Errorf("prochost: cpu line field %q: %w", f, err)
			}
			vals = append(vals, v)
		}
		st := StatTimes{User: vals[0], Nice: vals[1], Sys: vals[2], Idle: vals[3]}
		for _, v := range vals[4:min(len(vals), 8)] {
			st.Other += v
		}
		return st, nil
	}
	return StatTimes{}, fmt.Errorf("prochost: no aggregate cpu line in /proc/stat")
}
