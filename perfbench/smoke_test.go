package main

import (
	"os"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/quorum"
)

// TestSmokeEveryWorkload runs each workload briefly; every run must pass
// the output check and complete ops.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			o := options{workload: w.Name, seed: 7, workdir: t.TempDir()}
			res, err := measure(w, o, 300*time.Millisecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.violations) > 0 {
				t.Fatalf("output check failed: %v", res.violations)
			}
			if res.writes() == 0 || res.reads() == 0 {
				t.Fatalf("window completed %d writes, %d reads", res.writes(), res.reads())
			}
			m := map[string]metric{}
			endToEnd([]*windowResult{res}, m)
			for _, e := range []string{"throughput_ops_s", "write_p50_ms", "write_p99_ms", "read_p50_ms",
				"read_p99_ms", "cpu_us_per_op", "allocs_per_op", "alloc_bytes_per_op", "heap_live_mb",
				"error_rate", "setup_s"} {
				if v, ok := m[e]; !ok || !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive measurement", e, v)
				}
			}
			entries, err := os.ReadDir(o.workdir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Errorf("run left %d entries in its work dir (WAL dirs must be removed)", len(entries))
			}
		})
	}
}

// TestSmokeTraced runs the traced mode on the sharded TCP workload, where
// command IDs repeat across groups, and checks that every acknowledged
// write got all its stage stamps.
func TestSmokeTraced(t *testing.T) {
	w, err := lookupWorkload("tcp-readwrite")
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: w.Name, seed: 3, workdir: t.TempDir()}
	base, err := measure(w, o, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(newOpCodec(o.seed), w.Nodes, quorum.FastSize(w.Nodes))
	traced, err := measure(w, o, 300*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.violations) > 0 {
		t.Fatalf("output check failed: %v", traced.violations)
	}
	if len(tr.stages[0]) == 0 || tr.partial != 0 {
		t.Fatalf("%d stage samples, %d acks missing a stamp", len(tr.stages[0]), tr.partial)
	}
	m := map[string]metric{}
	if err := perLayer(w, o, tr, []*windowResult{base}, []*windowResult{traced}, m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"net.bytes_per_op", "net.msgs_per_op", "store.applies_per_op", "cpu_share.wire", "stage.submit_to_fastquorum_ms"} {
		if !(m[name].Value > 0) {
			t.Errorf("%s = %v, want > 0 on tcp-readwrite", name, m[name].Value)
		}
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += m["cpu_share."+l].Value
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("cpu_share rows sum to %v", sum)
	}
}
