package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// counters is a point-in-time reading of every cumulative counter a
// window's metrics difference: process CPU, the Go runtime's allocation
// and GC counters, and the nodes' protocol recorders, contention sketches
// and transport byte counts.
type counters struct {
	at         time.Time
	cpu        time.Duration // user + system, whole process
	allocObjs  uint64
	allocBytes uint64
	gcCPU      float64 // seconds, runtime estimate
	busyCPU    float64 // seconds the runtime's CPU classes saw busy
	gcCycles   uint64

	fast, slow, nacks, retries, blocked int64
	wait, propose, deliver              time.Duration
	proposeN, deliverN                  int64
	parks                               int64
	fsyncs, fsyncRecs                   int64
	fsyncLat                            time.Duration
	netBytes                            int64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func sample(c *cluster) counters {
	var k counters
	k.at = time.Now()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		k.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ss := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ss[i].Name = n
	}
	metrics.Read(ss)
	k.allocObjs = ss[0].Value.Uint64()
	k.allocBytes = ss[1].Value.Uint64()
	k.gcCPU = ss[2].Value.Float64()
	k.busyCPU = ss[3].Value.Float64() - ss[4].Value.Float64()
	k.gcCycles = ss[5].Value.Uint64()
	for _, n := range c.nodes {
		m := n.met
		k.fast += m.FastDecisions.Load()
		k.slow += m.SlowDecisions.Load()
		k.nacks += m.Nacks.Load()
		k.retries += m.Retries.Load()
		k.wait += m.WaitCondition.Total()
		k.propose += m.ProposePhase.Total()
		k.proposeN += m.ProposePhase.Count()
		k.deliver += m.DeliverPhase.Total()
		k.deliverN += m.DeliverPhase.Count()
		k.parks += m.ReadFenceParks.Load()
		k.fsyncs += m.Fsyncs.Load()
		k.fsyncRecs += m.FsyncedRecords.Load()
		k.fsyncLat += m.FsyncLatency.Total()
		k.blocked += n.stk.Contend.TotalLosses().Blocked
		if n.tcp != nil {
			for _, p := range n.tcp.Stats() {
				k.netBytes += p.SentBytes
			}
		}
	}
	return k
}

// minus is the change from b to k.
func (k counters) minus(b counters) counters {
	return counters{
		at:         k.at,
		cpu:        k.cpu - b.cpu,
		allocObjs:  k.allocObjs - b.allocObjs,
		allocBytes: k.allocBytes - b.allocBytes,
		gcCPU:      k.gcCPU - b.gcCPU,
		busyCPU:    k.busyCPU - b.busyCPU,
		gcCycles:   k.gcCycles - b.gcCycles,
		fast:       k.fast - b.fast,
		slow:       k.slow - b.slow,
		nacks:      k.nacks - b.nacks,
		retries:    k.retries - b.retries,
		blocked:    k.blocked - b.blocked,
		wait:       k.wait - b.wait,
		propose:    k.propose - b.propose,
		proposeN:   k.proposeN - b.proposeN,
		deliver:    k.deliver - b.deliver,
		deliverN:   k.deliverN - b.deliverN,
		parks:      k.parks - b.parks,
		fsyncs:     k.fsyncs - b.fsyncs,
		fsyncRecs:  k.fsyncRecs - b.fsyncRecs,
		fsyncLat:   k.fsyncLat - b.fsyncLat,
		netBytes:   k.netBytes - b.netBytes,
	}
}

// plus is the sum of two counter deltas (at is k's): k minus the
// negation of b, which the unsigned fields get right by wrapping.
func (k counters) plus(b counters) counters {
	neg := counters{}.minus(b)
	return k.minus(neg)
}

// heapLive is the live heap the last GC marked.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
