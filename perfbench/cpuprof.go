package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// CPU-profile layer attribution. The traced run takes a CPU profile
// (runtime/pprof) over its window; attributeProfile charges every sample
// to one layer: the innermost stack frame that belongs to this module's
// packages decides, so allocation, map growth and channel operations
// count against the module code that asked for them. Samples with no
// module frame go to the garbage collector's workers, the scheduler, or
// the rest of the runtime. The samples come from the toolchain's own
// profile reader, `go tool pprof`.

// modulePath is the import path of this module.
const modulePath = "github.com/caesar-consensus/caesar"

// cpuLayers are the rows of the cpu_share table, in report order. The
// named internal packages map to their own rows; every other package of
// the module is "other", and the benchmark's own code (package main) is
// "bench".
var cpuLayers = []string{
	"caesar", "protocol", "memnet", "tcpnet", "wire", "shard", "kvstore",
	"wal", "reads", "contend", "trace", "obs", "flight", "audit",
	"other", "bench", "gc", "scheduler", "runtime",
}

var namedLayer = func() map[string]bool {
	m := make(map[string]bool)
	for _, l := range cpuLayers[:14] {
		m[l] = true
	}
	return m
}()

// gcFrames mark a sample without module frames as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// schedFrames mark a sample without module frames as scheduler work.
var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.findrunnable",
	"runtime.park_m", "runtime.goexit0", "runtime.gosched_m",
	"runtime.goschedImpl", "runtime.stopm", "runtime.startm",
	"runtime.exitsyscall0", "runtime.mstart1",
}

// layerOf maps one function name to its layer; ok is false for
// functions outside this module and the benchmark. The benchmark's own
// functions are named main.* in its binary and by import path in its
// test binary.
func layerOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, modulePath+"/perfbench.") {
		return "bench", true
	}
	rest, found := strings.CutPrefix(fn, modulePath)
	if !found || rest == "" || (rest[0] != '/' && rest[0] != '.') {
		return "", false
	}
	if rest[0] == '.' {
		return "other", true // the root package, the public API
	}
	// The package path ends at the first '.' after the last '/'.
	pkg := rest[1:]
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if name, ok := strings.CutPrefix(pkg, "internal/"); ok && namedLayer[name] {
		return name, true
	}
	return "other", true
}

// classifyStack picks the layer for one sample's stack, leaf first.
func classifyStack(frames []string) string {
	for _, fn := range frames {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	for _, fn := range frames {
		for _, g := range gcFrames {
			if fn == g {
				return "gc"
			}
		}
	}
	for _, fn := range frames {
		for _, s := range schedFrames {
			if fn == s {
				return "scheduler"
			}
		}
	}
	return "runtime"
}

// profileSample is one stack sample: frames leaf first (inlined
// frames expanded) and its CPU time in nanoseconds.
type profileSample struct {
	Frames []string
	Nanos  int64
}

// attributeProfile returns each layer's share of the sampled CPU time:
// every cpuLayers row is present, and the rows sum to 1 when there were
// samples.
func attributeProfile(samples []profileSample) map[string]float64 {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total int64
	for _, s := range samples {
		shares[classifyStack(s.Frames)] += float64(s.Nanos)
		total += s.Nanos
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= float64(total)
		}
	}
	return shares
}

// readProfiles merges the CPU profile files with `go tool pprof -traces`
// and returns their samples; it removes the files once read. The
// profiles carry their function names, so pprof needs no binary.
func readProfiles(dir string, files []string) ([]profileSample, error) {
	defer func() {
		for _, f := range files {
			_ = os.Remove(f) // the samples are read or the run fails either way
		}
	}()
	if len(files) == 0 {
		return nil, nil
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	cmd := exec.Command(goBin, append([]string{"tool", "pprof", "-traces", "-unit=ns"}, files...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(string(out))
}

// parseTraces reads the report of `go tool pprof -traces -unit=ns`: a
// header, then one block per sample, each opened by a separator line.
// A block may list the sample's labels ("key:  values"), then its value
// and leaf frame on one line ("1230000ns   pkg.fn"), then one caller per
// line; inlined frames carry an " (inline)" suffix.
func parseTraces(report string) ([]profileSample, error) {
	var out []profileSample
	var cur *profileSample
	inBlocks := false
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inBlocks, cur = true, nil
			continue
		}
		fields := strings.Fields(line)
		if !inBlocks || len(fields) == 0 {
			continue
		}
		if cur == nil {
			v, ok := strings.CutSuffix(fields[0], "ns")
			if !ok || len(fields) < 2 {
				continue // a label line
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sample value %q: %w", fields[0], err)
			}
			out = append(out, profileSample{Nanos: n})
			cur = &out[len(out)-1]
			fields = fields[1:]
		}
		cur.Frames = append(cur.Frames, fields[0])
	}
	if !inBlocks {
		return nil, errors.New("no samples in the pprof report")
	}
	return out, nil
}
