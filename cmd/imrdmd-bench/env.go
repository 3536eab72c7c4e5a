package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// env is the machine and build a run measured on; every record carries
// it so that results from different hosts are not compared unawares.
type env struct {
	NumCPU        int            `json:"nproc"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	EngineWorkers int            `json:"engine_workers"`
	CPU           string         `json:"cpu"`
	GoVersion     string         `json:"go_version"`
	OSArch        string         `json:"os_arch"`
	Kernel        mat.KernelInfo `json:"kernel"`
}

func currentEnv() env {
	return env{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		EngineWorkers: compute.Shared(0).Workers(),
		CPU:           cpuModel(),
		GoVersion:     runtime.Version(),
		OSArch:        runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:        mat.Kernel(),
	}
}

func (e env) String() string {
	k := e.Kernel
	return fmt.Sprintf("nproc=%d gomaxprocs=%d engine_workers=%d cpu=%q go=%s %s kernel=%s tuned=%v skinny=%v kc/mc/nc=%d/%d/%d",
		e.NumCPU, e.GOMAXPROCS, e.EngineWorkers, e.CPU, e.GoVersion, e.OSArch,
		k.Tier, k.Tuned, k.Skinny, k.F64.KC, k.F64.MC, k.F64.NC)
}

// cpuModel reads the model name from /proc/cpuinfo ("unknown" elsewhere).
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
