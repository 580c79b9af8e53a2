package main

import (
	"bufio"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo is the host block printed with every run.
type hostInfo struct {
	CPU        string
	VCPUs      int
	GOMAXPROCS int
	GoVersion  string
	GitSHA     string
	L2, LLC    int64 // bytes per cache instance, from /sys
	TriadBytes int64 // total bytes of the three triad arrays
	TriadGBs   float64
}

func measureHost(root string) hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		VCPUs:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown (not a git checkout)",
	}
	if out, err := osexec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	h.L2, h.LLC = cacheSizes()
	h.TriadBytes, h.TriadGBs = triad(h.LLC)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cacheSizes reads cpu0's unified L2 and last-level cache sizes.
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best := 0
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		level, _ := strconv.Atoi(read("level"))
		size := parseSize(read("size"))
		if level == 2 {
			l2 = size
		}
		if level >= best {
			best, llc = level, size
		}
	}
	return l2, llc
}

func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}

// triadMaxBytes caps the triad's three arrays: the host is shared, so
// the arrays exceed a large LLC only as far as this allows.
const triadMaxBytes = 512 << 20

// triad runs the STREAM triad a = b + s·c across GOMAXPROCS goroutines
// and returns the arrays' total size and the best of triadPasses
// bandwidths (STREAM counting: 24 bytes per element, no write-allocate).
func triad(llc int64) (int64, float64) {
	total := llc + llc/4
	total = min(max(total, 192<<20), triadMaxBytes)
	n := int(total / 24)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	const triadPasses = 8
	w := runtime.GOMAXPROCS(0)
	best := 0.0
	for pass := 0; pass < triadPasses; pass++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			lo, hi := g*n/w, (g+1)*n/w
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		best = max(best, 24*float64(n)/time.Since(t0).Seconds()/1e9)
	}
	return int64(n) * 24, best
}

func (h hostInfo) lines() []string {
	return []string{
		fmt.Sprintf("host cpu: %s", h.CPU),
		fmt.Sprintf("host vcpus: %d  GOMAXPROCS: %d  go: %s", h.VCPUs, h.GOMAXPROCS, h.GoVersion),
		fmt.Sprintf("host git: %s", h.GitSHA),
		fmt.Sprintf("host caches: L2 %.1f MB per core, LLC %.1f MB", float64(h.L2)/(1<<20), float64(h.LLC)/(1<<20)),
		fmt.Sprintf("host triad: %.2f GB/s over 3 arrays of %.0f MB (%.0f MB total)", h.TriadGBs, float64(h.TriadBytes)/3/(1<<20), float64(h.TriadBytes)/(1<<20)),
	}
}
