package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// printProvenance prints where and how the run was made, one "# " line
// per fact, before any measurement.
func printProvenance(l *reqList, seed uint64, seconds int, traced bool, work string, probeGBps float64) {
	root := filepath.Join(work, "..", "..", "..")
	fmt.Printf("# workload: %s\n", l.spec.name)
	fmt.Printf("# cpu: %s\n", cpuModel())
	fmt.Printf("# nproc: %d  GOMAXPROCS: %d  go: %s  %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# commit: %s\n", gitCommit(root))
	fmt.Printf("# seed: %d  seconds: %d  traced: %v  clients: %d (closed loop)\n", seed, seconds, traced, l.spec.clients)
	fmt.Printf("# table rows: %d  distinct queries: %d  request list: %d requests\n", l.spec.rows, len(l.queries), len(l.ops))
	fmt.Printf("# scratch dir: %s\n", work)
	fmt.Printf("# flush policy (live mounts): %s\n", flushPolicy)
	fmt.Printf("# memory bandwidth probe: %.3f GB/s (parallel copy, read+write)\n", probeGBps)
}

// cpuModel reads the CPU model name, or "unknown".
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

// gitCommit reads the checkout's HEAD commit without running git, or
// says why it cannot.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown (" + ref + " unresolved)"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown (" + ref + " unresolved)"
}

// cpuTicks reads, from the first line of /proc/stat, the CPU time the
// hypervisor gave to other guests while this machine's CPUs wanted to
// run ("steal") and the total CPU time, in clock ticks. ok is false
// where the file is missing or malformed.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// printSteal prints the share of CPU time stolen by the hypervisor
// between two cpuTicks readings: a diagnostic of the shared host, which
// slows every wall-clock metric of the run.
func printSteal(steal0, total0 uint64, ok0 bool) {
	steal1, total1, ok1 := cpuTicks()
	if !ok0 || !ok1 {
		fmt.Println("# host steal over the timed phase: unknown (no /proc/stat)")
		return
	}
	fmt.Printf("# host steal over the timed phase: %.4f of CPU time\n", share(float64(steal1-steal0), float64(total1-total0)))
}
