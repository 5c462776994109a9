package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's CPU time so far, user plus system, over all
// threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTicks reads the machine-wide steal and total jiffies from the
// aggregate cpu line of /proc/stat.
func cpuTicks() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal (guest time is
		// already inside user and nice)
		for i, s := range fields[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return 0, 0, err
			}
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total, nil
	}
	return 0, 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealMeter measures the share of CPU time the hypervisor stole over
// an interval.
type stealMeter struct {
	steal0, total0 uint64
	ok             bool
}

func startSteal() stealMeter {
	s, t, err := cpuTicks()
	return stealMeter{steal0: s, total0: t, ok: err == nil}
}

// share returns the stolen share since start, or -1 when /proc/stat is
// unreadable.
func (m stealMeter) share() float64 {
	s, t, err := cpuTicks()
	if !m.ok || err != nil || t <= m.total0 {
		return -1
	}
	return float64(s-m.steal0) / float64(t-m.total0)
}
