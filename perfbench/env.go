package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envRecord is the machine the run measured on.
type envRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"pool_workers_and_shards"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
}

// environment reads the runtime settings and CPU 0's cache sizes.
func environment() envRecord {
	e := envRecord{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workers: concurrency,
		L2: "unknown", L3: "unknown",
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, size := readTrim(filepath.Join(d, "level")), readTrim(filepath.Join(d, "size"))
		switch level {
		case "2":
			e.L2 = size
		case "3":
			e.L3 = size
		}
	}
	return e
}

// readTrim returns a small sysfs file's trimmed contents, "" on error.
func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
