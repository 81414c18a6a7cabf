// Command perfbench is the repository's benchmark: it builds an
// in-process CAESAR cluster the way caesar-server wires its nodes, drives
// it with closed-loop clients through the layers' public entry points
// (Engine.Submit, reads.Engine.Read), checks the replicas' output value
// by value, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics of a traced run. See README.md.
//
//	go run . -workload lan-write -seed 1 -seconds 24 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (name → value and unit).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/caesar-consensus/caesar/internal/quorum"
)

// warmup is how long, at the workload's nominal rate, clients run before
// the measured window opens, so lazy set-up and caches settle first.
const warmup = 500 * time.Millisecond

// overrun bounds a warmup or window that the program takes longer than
// its nominal time to get through: it ends after overrun times that.
const overrun = 4

// rounds is how many fresh clusters an untraced run measures, one after
// another, each for an equal share of the window. Every end-to-end figure
// is the median over the rounds. Fresh clusters keep each round's heap,
// and so its garbage-collection rhythm, on the same trajectory.
const rounds = 12

// traceRounds is how many untraced/traced cluster pairs a traced run
// measures; the per-layer figures pool them.
const traceRounds = 3

// runBudget bounds a run's wall time. A run starts another round only if
// the longest round so far still fits in what is left, so a much slower
// program reports figures over fewer rounds instead of being killed
// without a result (run.py kills the process at 170 s).
const runBudget = 140 * time.Second

// setupClient numbers the pseudo-clients whose one write per node
// completes set-up; far above any real client number.
const setupClient = 1 << 20

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (lan-write, tcp-readwrite, geo-conflict30, lan-durable)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: keys, values, probe and network jitter")
	flag.Float64Var(&o.seconds, "seconds", 24, "measured time at the workload's nominal rate, split over the rounds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for WAL data, span files and scratch")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) error {
	start := time.Now()
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	window := time.Duration(o.seconds * float64(time.Second))
	fmt.Printf("workload %s: %s\n", w.Name, w.Why)
	fmt.Printf("nodes %d, clients %d (closed loop), shards %d, GOMAXPROCS %d, seed %d, window %v at %.0f ops/s nominal\n",
		w.Nodes, w.Nodes*w.ClientsPerNode, w.Shards, runtime.GOMAXPROCS(0), o.seed, window, w.Rate)

	rep := report{Correct: true, Metrics: map[string]metric{}}
	bud := budget{start: start, last: start}
	if o.trace == 0 {
		var rs []*windowResult
		for i := 0; i < rounds && bud.another(i, rounds); i++ {
			r, err := measure(w, o, window/rounds, nil)
			if err != nil {
				return err
			}
			r.addTo(&rep)
			rs = append(rs, r)
			bud.done()
		}
		endToEnd(rs, rep.Metrics)
	} else {
		// Pairs of one untraced and one traced cluster, each measured for
		// one round's share of the window: the regime the end-to-end
		// rounds measure.
		tr := newTracer(newOpCodec(o.seed), w.Nodes, quorum.FastSize(w.Nodes))
		var base, traced []*windowResult
		for i := 0; i < traceRounds && bud.another(i, traceRounds); i++ {
			b, err := measure(w, o, window/rounds, nil)
			if err != nil {
				return err
			}
			b.addTo(&rep)
			t, err := measure(w, o, window/rounds, tr)
			if err != nil {
				return err
			}
			t.addTo(&rep)
			base, traced = append(base, b), append(traced, t)
			bud.done()
		}
		if err := perLayer(w, o, tr, base, traced, rep.Metrics); err != nil {
			return err
		}
	}
	printTable(rep.Metrics)
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", name, m.Value)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return errors.New("output check failed")
	}
	return nil
}

// budget paces a run's rounds against runBudget.
type budget struct {
	start, last time.Time
	longest     time.Duration
}

// another reports whether round i of n may start: the first always does,
// a later one if the longest round so far fits in the time left.
func (b *budget) another(i, n int) bool {
	if i == 0 || time.Since(b.start)+b.longest <= runBudget {
		return true
	}
	fmt.Printf("note: run budget %v spent: reporting %d of %d rounds\n", runBudget, i, n)
	return false
}

// done marks the end of a round.
func (b *budget) done() {
	now := time.Now()
	if d := now.Sub(b.last); d > b.longest {
		b.longest = d
	}
	b.last = now
}

// windowResult is one measured window on one cluster, reduced to its
// figures: a run keeps one per round, so it holds no per-op samples.
type windowResult struct {
	setup      float64  // seconds from the cluster build to every node's first ack
	before     counters // at the window's start
	after      counters // at its end
	write      latencySummary
	read       latencySummary // client reads and probe reads
	ops        int64          // completed client ops (probe reads excluded)
	attempted  int64          // ops started in the window, completed or failed
	failed     int64
	heapLiveMB float64
	violations []string
	profile    string // file holding the CPU profile of a traced window
}

func (r *windowResult) writes() int64 { return int64(r.write.N) }
func (r *windowResult) reads() int64  { return int64(r.read.N) }

func (r *windowResult) dur() time.Duration { return r.after.at.Sub(r.before.at) }

func (r *windowResult) throughput() float64 {
	return float64(r.ops) / r.dur().Seconds()
}

// addTo folds the window's outcome into the report's totals.
func (r *windowResult) addTo(rep *report) {
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	if len(r.violations) > 0 {
		rep.Correct = false
		fmt.Println("OUTPUT CHECK FAILED:")
		for _, v := range r.violations {
			fmt.Println("  " + v)
		}
	}
}

// setUp builds a cluster and waits for every node to acknowledge one
// write, returning the elapsed time and the set-up writes for the check.
func setUp(w workload, o options, codec opCodec, tr *tracer) (*cluster, time.Duration, map[string][]byte, error) {
	start := time.Now()
	c, err := buildCluster(w, o.seed, o.workdir, tr)
	if err != nil {
		return nil, 0, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupWriteTimeout)
	defer cancel()
	keys := make(map[string][]byte, w.Nodes)
	errs := make(chan error, w.Nodes)
	for i := range c.nodes {
		k := "setup-" + strconv.Itoa(i)
		v := codec.value(opRef{Client: setupClient + i, Seq: 1})
		keys[k] = v
		go func(i int) { errs <- c.writeOnce(ctx, i, k, v) }(i)
	}
	for range c.nodes {
		if err := <-errs; err != nil {
			c.stop()
			return nil, 0, nil, fmt.Errorf("set-up write: %w", err)
		}
	}
	return c, time.Since(start), keys, nil
}

// measure builds the workload's cluster, runs the closed-loop clients
// through a warmup and the measured window, checks the output, takes the
// live heap and tears the cluster down.
func measure(w workload, o options, window time.Duration, tr *tracer) (*windowResult, error) {
	codec := newOpCodec(o.seed)
	res := &windowResult{}
	if tr != nil {
		tr.nextRound()
	}
	c, d, setupKeys, err := setUp(w, o, codec, tr)
	if err != nil {
		return nil, err
	}
	res.setup = d.Seconds()
	defer c.stop()
	if err := drive(c, o, window, codec, setupKeys, tr, res); err != nil {
		return nil, err
	}
	// The load and its per-op records are gone, and earlier rounds are
	// reduced to their figures: the live heap is the quiet cluster's.
	runtime.GC()
	res.heapLiveMB = float64(heapLive()) / 1e6
	if res.ops == 0 {
		return nil, errors.New("no op completed in the window")
	}
	return res, nil
}

// drive runs the load on c through the warmup and the window, folds the
// clients' outcomes into res and checks the output.
//
// The warmup and the window are fixed numbers of client ops, sized from
// the workload's nominal rate (a window of w is w·Rate ops), so every
// round ends with the same amount of state: the store keeps every key,
// its maps double at fixed key counts, and the heap and the collector's
// cycles follow the op count. A window cut by time would catch a map
// doubling or a GC cycle in some rounds and not in others. A forced GC
// after the warmup starts every window at the same point of the
// collector's cycle.
func drive(c *cluster, o options, window time.Duration, codec opCodec, setupKeys map[string][]byte, tr *tracer, res *windowResult) error {
	w := c.w
	l := startLoad(c, o.seed, codec, tr)
	l.awaitOps(int64(w.Rate*warmup.Seconds()), overrun*warmup)
	runtime.GC()
	var prof *os.File
	if tr != nil {
		var err error
		if prof, err = os.CreateTemp(o.workdir, "cpu-*.pprof"); err != nil {
			l.stopAndWait()
			return err
		}
		defer prof.Close()
		res.profile = prof.Name()
		tr.measuring.Store(true)
		if err := pprof.StartCPUProfile(prof); err != nil {
			l.stopAndWait()
			return err
		}
	}
	res.before = sample(c)
	l.phase.Store(phaseMeasure)
	l.awaitOps(int64(w.Rate*window.Seconds()), overrun*window)
	l.phase.Store(phaseStop)
	res.after = sample(c)
	if tr != nil {
		pprof.StopCPUProfile()
		tr.measuring.Store(false)
	}
	l.stopAndWait()

	var writeLat, readLat []int64
	for _, oc := range l.clients {
		writeLat = append(writeLat, oc.writeLat...)
		readLat = append(readLat, oc.readLat...)
		res.attempted += oc.attempted
		res.failed += oc.failed
	}
	res.ops = int64(len(writeLat) + len(readLat))
	for _, oc := range l.probes {
		readLat = append(readLat, oc.readLat...)
		res.attempted += oc.attempted
		res.failed += oc.failed
	}
	res.write, res.read = summarize(writeLat), summarize(readLat)
	res.violations = checkOutput(c, l, codec, setupKeys)
	return nil
}

// endToEnd fills the end-to-end metrics from the untraced rounds. Every
// figure but error_rate is computed per round and reported as the median
// over rounds, so a round slowed by something outside the benchmark
// (another tenant of the machine) moves the figures little. error_rate
// pools the rounds' ops.
func endToEnd(rs []*windowResult, m map[string]metric) {
	var thr, wp50, wp99, rp50, rp99, cpu, allocs, bytes, heap, setups []float64
	var attempted, failed int64
	minW, minR := -1, -1
	fmt.Println("round     ops/s  writes   reads  write p50/p99 ms  read p50/p99 ms  cpu us/op  allocs/op  heap MB")
	for i, r := range rs {
		ops := r.ops
		d := r.after.minus(r.before)
		ws, rd := r.write, r.read
		thr = append(thr, r.throughput())
		wp50, wp99 = append(wp50, ws.P50), append(wp99, ws.P99)
		rp50, rp99 = append(rp50, rd.P50), append(rp99, rd.P99)
		cpu = append(cpu, perOp(float64(d.cpu)/float64(time.Microsecond), ops))
		allocs = append(allocs, perOp(float64(d.allocObjs), ops))
		bytes = append(bytes, perOp(float64(d.allocBytes), ops))
		heap = append(heap, r.heapLiveMB)
		setups = append(setups, r.setup)
		attempted += r.attempted
		failed += r.failed
		if minW < 0 || ws.N < minW {
			minW = ws.N
		}
		if minR < 0 || rd.N < minR {
			minR = rd.N
		}
		fmt.Printf("%5d  %8.0f  %6d  %6d  %7.3f/%7.3f  %7.3f/%7.3f  %9.2f  %9.2f  %7.1f\n",
			i, thr[i], ws.N, rd.N, ws.P50, ws.P99, rd.P50, rd.P99, cpu[i], allocs[i], r.heapLiveMB)
	}
	m["throughput_ops_s"] = metric{median(thr), "1/s"}
	m["write_p50_ms"] = metric{median(wp50), "ms"}
	m["write_p99_ms"] = metric{median(wp99), "ms"}
	m["read_p50_ms"] = metric{median(rp50), "ms"}
	m["read_p99_ms"] = metric{median(rp99), "ms"}
	m["cpu_us_per_op"] = metric{median(cpu), "us"}
	m["allocs_per_op"] = metric{median(allocs), "count"}
	m["alloc_bytes_per_op"] = metric{median(bytes), "B"}
	m["heap_live_mb"] = metric{median(heap), "MB"}
	m["error_rate"] = metric{errorRate(failed, attempted), "ratio"}
	m["setup_s"] = metric{median(setups), "s"}
	fmt.Printf("attempted %d, failed %d; fewest latency samples in a round: %d writes, %d reads; set-up times %v s\n",
		attempted, failed, minW, minR, fmtFloats(setups, 4))
	switch {
	case minW == 0 || minR == 0:
		// A round without samples measured no latency: the run reports
		// that instead of a figure.
		for _, k := range []string{"write_p50_ms", "write_p99_ms", "read_p50_ms", "read_p99_ms"} {
			m[k] = metric{math.NaN(), "ms"}
		}
	case minW < 1000 || minR < 1000:
		fmt.Println("note: a round has fewer than ten samples beyond its p99; lengthen the window")
	}
}

// pooled sums a set of windows: their counter deltas, ops and time, and
// the files of their CPU profiles.
type pooled struct {
	d             counters
	writes, reads int64
	ops           int64
	dur           time.Duration
	profiles      []string
}

func pool(rs []*windowResult) pooled {
	var p pooled
	for _, r := range rs {
		p.d = p.d.plus(r.after.minus(r.before))
		p.writes += r.writes()
		p.reads += r.reads()
		p.ops += r.ops
		p.dur += r.dur()
		if r.profile != "" {
			p.profiles = append(p.profiles, r.profile)
		}
	}
	return p
}

func (p pooled) throughput() float64 { return float64(p.ops) / p.dur.Seconds() }

// perLayer fills the per-layer metrics: counters pooled over the untraced
// windows, wrapper measurements, spans and CPU profiles over the traced
// ones.
func perLayer(w workload, o options, tr *tracer, baseRuns, tracedRuns []*windowResult, m map[string]metric) error {
	base, traced := pool(baseRuns), pool(tracedRuns)
	samples, err := readProfiles(o.workdir, traced.profiles)
	if err != nil {
		return fmt.Errorf("reading the CPU profiles: %w", err)
	}
	d := base.d
	writes := float64(base.writes)
	m["caesar.fast_share"] = metric{ratio(float64(d.fast), float64(d.fast+d.slow)), "ratio"}
	m["caesar.nacks_per_op"] = metric{ratio(float64(d.nacks), writes), "count"}
	m["caesar.retries_per_op"] = metric{ratio(float64(d.retries), writes), "count"}
	m["caesar.blocked_per_op"] = metric{ratio(float64(d.blocked), writes), "count"}
	m["caesar.wait_ms_per_op"] = metric{ratio(float64(d.wait)/float64(time.Millisecond), writes), "ms"}
	m["caesar.propose_ms_mean"] = metric{meanDur(d.propose, d.proposeN, time.Millisecond), "ms"}
	m["caesar.deliver_ms_mean"] = metric{meanDur(d.deliver, d.deliverN, time.Millisecond), "ms"}
	m["net.bytes_per_op"] = metric{ratio(float64(d.netBytes), writes), "B"}
	m["reads.park_share"] = metric{ratio(float64(d.parks), float64(base.reads)), "ratio"}
	m["wal.fsyncs_per_op"] = metric{ratio(float64(d.fsyncs), writes), "count"}
	m["wal.records_per_fsync"] = metric{ratio(float64(d.fsyncRecs), float64(d.fsyncs)), "count"}
	m["wal.fsync_ms_mean"] = metric{meanDur(d.fsyncLat, d.fsyncs, time.Millisecond), "ms"}
	m["gc.cpu_share"] = metric{ratio(d.gcCPU, d.busyCPU), "ratio"}
	m["gc.cycles_per_kop"] = metric{ratio(float64(d.gcCycles), float64(base.ops)/1000), "count"}

	tw := float64(traced.writes)
	stageNames := []string{"submit_to_fastquorum", "fastquorum_to_stable", "stable_to_apply", "apply_to_ack"}
	for i, name := range stageNames {
		m["stage."+name+"_ms"] = metric{percentile(tr.stages[i], 0.5), "ms"}
		m["stage."+name+"_p99_ms"] = metric{percentile(tr.stages[i], 0.99), "ms"}
	}
	m["loop.post_wait_us_mean"] = metric{float64(tr.postWait.Mean()) / float64(time.Microsecond), "us"}
	m["loop.post_wait_us_p99"] = metric{float64(tr.postWait.Quantile(0.99)) / float64(time.Microsecond), "us"}
	m["net.msgs_per_op"] = metric{ratio(float64(tr.sendCalls.Load()), tw), "count"}
	m["store.apply_us"] = metric{float64(tr.applyDur.Mean()) / float64(time.Microsecond), "us"}
	m["store.applies_per_op"] = metric{ratio(float64(tr.applies.Load()), tw), "count"}
	m["trace.overhead_pct"] = metric{100 * (base.throughput() - traced.throughput()) / base.throughput(), "%"}

	shares := attributeProfile(samples)
	for _, l := range cpuLayers {
		m["cpu_share."+l] = metric{shares[l], "ratio"}
	}

	fmt.Printf("traced: %d stage samples (%d acks missing a stamp), throughput %.0f ops/s traced vs %.0f untraced\n",
		len(tr.stages[0]), tr.partial, traced.throughput(), base.throughput())
	fmt.Println("spans (sampled ops): name, count, mean µs, mean self µs")
	for _, row := range spanTable(tr.spans) {
		fmt.Printf("  %-30s %7d %10.1f %10.1f\n", row.Name, row.Count, row.MeanUS, row.MeanSelfUS)
	}
	var cpuNanos int64
	for _, smp := range samples {
		cpuNanos += smp.Nanos
	}
	fmt.Printf("cpu profile: %d distinct stacks, %.2f CPU-s\n", len(samples), float64(cpuNanos)/1e9)
	path := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, o.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s (%d spans)\n", path, len(tr.spans))
	return nil
}

func printTable(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func fmtFloats(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
