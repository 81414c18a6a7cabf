package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/caesar-consensus/caesar/internal/caesar.(*Replica).handle":       "caesar",
		"github.com/caesar-consensus/caesar/internal/contend.(*Group).record":        "contend",
		"github.com/caesar-consensus/caesar/internal/kvstore.(*Store).ApplyAt.func1": "kvstore",
		"github.com/caesar-consensus/caesar/internal/wire.(*Encoder).Encode":         "wire",
		"github.com/caesar-consensus/caesar/internal/xshard.(*Table).Applier":        "other",
		"github.com/caesar-consensus/caesar.(*Node).Put":                             "other",
		"main.(*load).runClient": "bench",
	} {
		if got, ok := layerOf(fn); !ok || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "github.com/caesar-consensus/caesarx.F"} {
		if _, ok := layerOf(fn); ok {
			t.Errorf("%s attributed to a module layer", fn)
		}
	}
}

func TestClassifyStackChargesInnermostModuleFrame(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "runtime.growslice",
			"github.com/caesar-consensus/caesar/internal/kvstore.(*Store).recordVersionLocked",
			"github.com/caesar-consensus/caesar/internal/caesar.(*Replica).deliverNow"}, "kvstore"},
		{[]string{"runtime.mapassign_faststr",
			"github.com/caesar-consensus/caesar/internal/contend.(*Group).record"}, "contend"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "scheduler"},
		{[]string{"runtime.nanotime", "runtime.sysmon", "runtime.mstart"}, "runtime"},
	} {
		if got := classifyStack(c.frames); got != c.want {
			t.Errorf("classifyStack(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// tracesReport is `go tool pprof -traces -unit=ns` output: two samples,
// the first with a label line and an inlined frame.
const tracesReport = `File: perfbench
Type: cpu
Duration: 401.89ms, Total samples = 40000000ns (9.95%)
-----------+-------------------------------------------------------
   layer:  apply
  30000000ns   runtime.mallocgc
             github.com/caesar-consensus/caesar/internal/kvstore.(*Store).ApplyAt (inline)
             github.com/caesar-consensus/caesar/internal/caesar.(*Replica).deliverNow
-----------+-------------------------------------------------------
  10000000ns   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	samples, err := parseTraces(tracesReport)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("parsed %d samples, want 2", len(samples))
	}
	want := []string{"runtime.mallocgc",
		"github.com/caesar-consensus/caesar/internal/kvstore.(*Store).ApplyAt",
		"github.com/caesar-consensus/caesar/internal/caesar.(*Replica).deliverNow"}
	if len(samples[0].Frames) != 3 || samples[0].Nanos != 30_000_000 {
		t.Fatalf("sample 0 = %+v", samples[0])
	}
	for i, f := range want {
		if samples[0].Frames[i] != f {
			t.Errorf("frame %d = %q, want %q", i, samples[0].Frames[i], f)
		}
	}
	shares := attributeProfile(samples)
	if !near(shares["kvstore"], 0.75) || !near(shares["gc"], 0.25) {
		t.Errorf("shares kvstore %v gc %v; want 0.75 and 0.25", shares["kvstore"], shares["gc"])
	}
	if len(shares) != len(cpuLayers) {
		t.Errorf("%d share rows, want one per layer (%d)", len(shares), len(cpuLayers))
	}
	if _, err := parseTraces("File: perfbench\nType: cpu\n"); err == nil {
		t.Error("a report without samples parsed")
	}
}

var sink float64

func burnCPU(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}

func TestAttributeRealProfileCoversSamples(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("profiler busy:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f.Close()
	samples, err := readProfiles(dir, []string{f.Name()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(f.Name()); !os.IsNotExist(err) {
		t.Errorf("profile file left behind (stat: %v)", err)
	}
	if len(samples) == 0 {
		t.Skip("no CPU samples taken")
	}
	sum := 0.0
	for _, v := range attributeProfile(samples) {
		sum += v
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.Frames {
			if f == "github.com/caesar-consensus/caesar/perfbench.burnCPU" || f == "main.burnCPU" {
				found = true
			}
		}
	}
	if !found {
		t.Error("the busy function does not appear in the profile")
	}
}
