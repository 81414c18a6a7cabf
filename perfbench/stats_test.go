package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}, {0.99, 3.97},
	} {
		if got := percentile(append([]float64(nil), xs...), c.q); !near(got, c.want) {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of an empty sample = %v, want NaN", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	ns := make([]int64, 0, 2000)
	for i := 1; i <= 2000; i++ {
		ns = append(ns, int64(i)*int64(time.Microsecond))
	}
	s := summarize(ns)
	if s.N != 2000 {
		t.Fatalf("N = %d, want 2000", s.N)
	}
	// 1..2000 µs: p50 interpolates to 1000.5 µs, p99 to 1980.01 µs.
	if !near(s.P50, 1.0005) || !near(s.P99, 1.98001) {
		t.Errorf("p50 = %v ms, p99 = %v ms", s.P50, s.P99)
	}
	if s := summarize(nil); s.N != 0 || s.P50 != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestPerOpArithmetic(t *testing.T) {
	if got := perOp(1500, 3); got != 500 {
		t.Errorf("perOp = %v, want 500", got)
	}
	if !math.IsNaN(perOp(1, 0)) {
		t.Error("perOp over no ops must be NaN, not a number")
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over 0 = %v, want 0", got)
	}
	if got := meanDur(3*time.Millisecond, 2, time.Millisecond); got != 1.5 {
		t.Errorf("meanDur = %v, want 1.5", got)
	}
}

func TestFailedOpsCountAgainstAttempts(t *testing.T) {
	var o outcome
	o.record(false, true, false, time.Millisecond) // outside the window
	o.record(true, true, false, 2*time.Millisecond)
	o.record(true, false, false, 5*time.Second) // timed out
	o.record(true, true, true, time.Microsecond)
	o.record(true, false, true, time.Second) // errored read
	o.record(false, false, false, time.Millisecond)
	if o.attempted != 4 || o.failed != 2 {
		t.Fatalf("attempted %d failed %d; want 4 and 2", o.attempted, o.failed)
	}
	if len(o.writeLat) != 1 || len(o.readLat) != 1 {
		t.Fatalf("%d write and %d read latencies; failed ops must not count as completed",
			len(o.writeLat), len(o.readLat))
	}
	if got := errorRate(o.failed, o.attempted); !near(got, 5.0/4) {
		t.Errorf("errorRate = %v, want (2+3)/4", got)
	}
	if got := errorRate(0, 300000); !near(got, 1e-5) {
		t.Errorf("errorRate without failures = %v, want 3/300000", got)
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	c := newOpCodec(42)
	seen := map[uint64]bool{}
	for client := 0; client < 50; client++ {
		for seq := uint64(1); seq < 200; seq++ {
			r := opRef{Client: client, Seq: seq}
			v := c.encode(r)
			if seen[v] {
				t.Fatalf("value %x repeats", v)
			}
			seen[v] = true
			got, ok := c.valueRef(c.value(r))
			if !ok || got != r {
				t.Fatalf("round trip of %+v gave %+v", r, got)
			}
		}
	}
	if newOpCodec(1).encode(opRef{1, 1}) == newOpCodec(2).encode(opRef{1, 1}) {
		t.Error("values do not depend on the seed")
	}
}
