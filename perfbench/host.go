package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// hostInfo is the host fingerprint stored in the run record.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func fingerprint() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo ("unknown" when
// the file is absent, as on non-Linux hosts).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeak samples the process's resident set size on its own goroutine
// and keeps the highest value since the last take.
type rssPeak struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

// rssPeriod is how often rssPeak samples.
const rssPeriod = 2 * time.Millisecond

func startRSSPeak() *rssPeak {
	r := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *rssPeak) sample() {
	b := rssBytes()
	for {
		old := r.peak.Load()
		if b <= old || r.peak.CompareAndSwap(old, b) {
			return
		}
	}
}

// take returns the peak in MiB since the last take and starts a new
// window.
func (r *rssPeak) take() float64 {
	r.sample()
	return float64(r.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (r *rssPeak) close() {
	close(r.stop)
	<-r.done
}

// rssBytes is the process's current resident set size, from
// /proc/self/statm (0 where that file is absent).
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// peakRSSMB is the process's lifetime peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats is the Go runtime's allocation and GC work over a phase.
type goStats struct{ allocMB, gcs, pauseMS float64 }

func readGo() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{float64(m.TotalAlloc) / (1 << 20), float64(m.NumGC), float64(m.PauseTotalNs) / 1e6}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{g.allocMB - o.allocMB, g.gcs - o.gcs, g.pauseMS - o.pauseMS}
}

// per divides the totals over n passes.
func (g goStats) per(n int) goStats {
	f := float64(max(n, 1))
	return goStats{g.allocMB / f, g.gcs / f, g.pauseMS / f}
}
