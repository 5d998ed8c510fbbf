package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		var kb float64
		if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
			return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// stolen reads, per vCPU, the seconds for which the hypervisor ran something
// else while the vCPU had work to do: the steal column of /proc/stat, which
// ticks every 10 ms. A host that is not virtualised reports zeros.
func stolen() ([]float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, fmt.Errorf("stolen time: %w", err)
	}
	var out []float64
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		// "cpuN user nice system idle iowait irq softirq steal ..."
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		ticks, err := strconv.ParseFloat(f[8], 64)
		if err != nil {
			return nil, fmt.Errorf("stolen time: parse %q: %w", line, err)
		}
		out = append(out, ticks/100)
	}
	return out, nil
}

// runShare is the share of a wall-clock interval of secs seconds in which
// the simulator could make progress, given stolen() at both ends. Work that
// keeps one vCPU busy loses exactly that vCPU's stolen time; work that needs
// every vCPU at once stalls when any is stolen, so the shares multiply. To
// first order the two agree.
func runShare(before, after []float64, secs float64) float64 {
	share := 1.0
	for i := range before {
		share *= max(0, 1-(after[i]-before[i])/secs)
	}
	return share
}

// hostUsage is what the kernel and the Go runtime have charged the process
// so far; the traced run reports the difference across its traced passes.
type hostUsage struct {
	userS, sysS float64
	minorFaults int64
	gcCycles    uint32
	gcPauseNs   uint64
}

func readHostUsage() (hostUsage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return hostUsage{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return hostUsage{
		userS: tv(ru.Utime), sysS: tv(ru.Stime), minorFaults: int64(ru.Minflt),
		gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs,
	}, nil
}

// printRunInfo prints what tells two result sets apart.
func printRunInfo(seed uint64) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown" // a checkout that is not a git repository has none
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# go=%s nproc=%d gomaxprocs=[%d 1] kernel=%s commit=%s seed=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.NumCPU(), kernel, commit, seed)
}
