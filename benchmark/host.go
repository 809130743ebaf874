package main

import (
	"os"
	"strconv"
	"strings"
)

// hostCPU is the aggregate cpu line of /proc/stat at one instant: jiffies the
// guest's CPUs spent running something, and jiffies they wanted to run but
// the hypervisor gave the physical core to another tenant (steal).
type hostCPU struct{ busy, steal float64 }

// readHostCPU reads the counters; where there is no /proc/stat it returns
// zeros and every share below comes out as 1, i.e. no correction.
func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	num := func(i int) float64 { v, _ := strconv.ParseFloat(f[i], 64); return v }
	return hostCPU{busy: num(1) + num(2) + num(3) + num(6) + num(7), steal: num(8)}
}

// given is the share of the CPU time this VM asked for between then and now
// that the host actually gave it: busy / (busy + steal). Work that took wall
// seconds under that share takes wall x given on an undisturbed host,
// whether it keeps one core busy or all of them.
func (now hostCPU) given(then hostCPU) float64 {
	busy, steal := now.busy-then.busy, now.steal-then.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}
