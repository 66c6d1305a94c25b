package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"

	"plshuffle/internal/tensor"
)

// hostInfo fingerprints the machine a result was measured on, so results
// from different hosts, core counts or GEMM kernels are never compared.
type hostInfo struct {
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	GemmKernel string `json:"gemm_kernel"`
}

func fingerprint() hostInfo {
	return hostInfo{
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GemmKernel: tensor.GemmKernelName(),
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("goarch=%s nproc=%d gomaxprocs=%d cpu=%q go=%s gemm=%s",
		h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.CPU, h.GoVersion, h.GemmKernel)
}

// cpuModel returns the processor's model name from /proc/cpuinfo, or
// "unknown" where there is none.
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

// peakRSS returns the process's high-water resident set size in bytes.
func peakRSS() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	if runtime.GOOS == "darwin" {
		return int64(ru.Maxrss), nil // bytes on darwin, KiB elsewhere
	}
	return int64(ru.Maxrss) * 1024, nil
}
