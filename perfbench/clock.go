package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// Timings are wall time net of steal: the time the hypervisor ran other
// guests on this machine's CPUs. On a shared virtual machine steal comes in
// bursts that last minutes and can slow a run by a fifth, which would
// swamp any change to the program; where the kernel reports no steal the
// net time is the wall time.

// instant is a point in time together with the steal accrued by then.
type instant struct {
	t     time.Time
	steal time.Duration
}

func now() instant { return instant{time.Now(), stolen()} }

// since returns the net time from earlier to i.
func (i instant) since(earlier instant) time.Duration {
	return i.t.Sub(earlier.t) - (i.steal - earlier.steal)
}

// userHZ is the unit of /proc/stat's counters; Linux fixes it at 100.
const userHZ = 100

// stolen returns the steal time accrued since boot per CPU: the steal
// column of /proc/stat's aggregate line divided by the number of CPUs. It
// is 0 where /proc/stat is unavailable.
func stolen() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	var ticks float64
	cpus := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) > 8 && fields[0] == "cpu":
			ticks, _ = strconv.ParseFloat(fields[8], 64)
		case len(fields) > 0 && strings.HasPrefix(fields[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(ticks / userHZ / float64(cpus) * float64(time.Second))
}
