package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// fingerprint stamps every result with the machine and build it came
// from, so numbers from different machines are never compared silently.
type fingerprint struct {
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	DaemonSeed       int64  `json:"daemon_seed"`
	NProc            int    `json:"nproc"`
	GenGOMAXPROCS    int    `json:"gen_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	Connections      int    `json:"connections"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
}

func cpuModelName() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeCommit identifies the source tree under test: a hash of every Go
// source and module file below root, so it works in a checkout that is
// not a git repository.
func treeCommit(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil)[:8])
}

func newFingerprint(p *plan, connections int) fingerprint {
	return fingerprint{
		Workload: p.W.Name, Seed: p.Seed, DaemonSeed: p.DaemonSeed,
		NProc: runtime.NumCPU(), GenGOMAXPROCS: runtime.GOMAXPROCS(0), DaemonGOMAXPROCS: daemonProcs(),
		Connections: connections, CPUModel: cpuModelName(), GoVersion: runtime.Version(), Commit: treeCommit("."),
	}
}

// daemonProcs is the GOMAXPROCS predictd runs with: every CPU.
func daemonProcs() int { return runtime.NumCPU() }

// runtimeStats reads this process's allocation and GC CPU counters.
type runtimeStats struct {
	alloc           uint64
	gcCPU, totalCPU float64
}

func (s *runtimeStats) read() {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	s.alloc = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.totalCPU = ms[2].Value.Float64()
}

// heapSampler records the peak live heap of this process while it runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			h.peak = max(h.peak, ms[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}
