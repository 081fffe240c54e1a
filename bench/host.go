package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the host shape every run records beside its numbers: a
// throughput only means something next to the machine it was taken on.
type hostInfo struct {
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	FSType     string
	FreeBytes  int64
}

func probeHost(dir string) (hostInfo, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return hostInfo{}, fmt.Errorf("statfs %s: %w", dir, err)
	}
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FSType:     fsName(int64(st.Type)),
		FreeBytes:  int64(st.Bavail) * st.Bsize,
	}, nil
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s fs=%s free=%.1fGB",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.FSType, float64(h.FreeBytes)/1e9)
}

// fsName maps the statfs magic numbers of the filesystems a store root is
// likely to sit on; anything else prints as hex.
func fsName(magic int64) string {
	switch magic {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// memoryBacked reports whether fs keeps file data in RAM, where fsync is
// free and a "disk" workload would measure memcpy.
func memoryBacked(fs string) bool { return fs == "tmpfs" || fs == "ramfs" }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procFields reads "key: value" (or "key value") lines of a /proc file into
// a map of the leading integer of each value. A missing file yields an empty
// map: the numbers taken from it are per-layer diagnostics, never gates.
func procFields(path string) map[string]int64 {
	out := map[string]int64{}
	f, err := os.Open(path)
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(val)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[key] = n
		}
	}
	return out
}

// peakRSS returns the process's resident-set high-water mark in bytes.
func peakRSS() int64 { return procFields("/proc/self/status")["VmHWM"] << 10 }

// ioCounts are the kernel's per-process I/O counters (/proc/self/io).
type ioCounts struct {
	writeSyscalls, writeBytes, readSyscalls int64
}

func readIO() ioCounts {
	f := procFields("/proc/self/io")
	return ioCounts{writeSyscalls: f["syscw"], writeBytes: f["write_bytes"], readSyscalls: f["syscr"]}
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{a.writeSyscalls - b.writeSyscalls, a.writeBytes - b.writeBytes, a.readSyscalls - b.readSyscalls}
}
