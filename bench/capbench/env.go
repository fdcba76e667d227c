package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// environment is printed with every result: what a number was measured
// on. Fsync cost depends on the filesystem under the temp stores, so
// its type is part of it.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	TempFS     string  `json:"temp_fs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Instances  int     `json:"instances"`
	Traced     bool    `json:"traced"`
}

func describeEnvironment(o options) environment {
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: gomaxprocs,
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		TempFS:     fsType(os.TempDir()),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Instances:  instanceCount(o.seconds),
		Traced:     o.trace,
	}
}

func (e environment) header() string {
	return fmt.Sprintf("capbench: workload=%s seed=%d window=%gs instances=%d traced=%t | commit %s | %s GOMAXPROCS=%d nproc=%d | cpu %q | temp fs %s",
		e.Workload, e.Seed, e.Seconds, e.Instances, e.Traced, e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.TempFS)
}

// commit is the VCS revision go build stamped into the binary, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

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

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x65735546: "fuse",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// statusMB reads a memory field of a process's /proc status ("VmRSS",
// "VmHWM") in MB; pid 0 means this process.
func statusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no %s", path, field)
}
