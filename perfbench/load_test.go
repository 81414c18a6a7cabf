package main

import (
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// TestStuckOpsCountAsFailed cuts every link of the cluster while the
// window is open: no write can commit from then on and no parked read can
// finish, so every client ends the window with an op that never
// completes. Each such op started in the window and must count as
// attempted and failed once stopAndWait abandons it.
func TestStuckOpsCountAsFailed(t *testing.T) {
	w, err := lookupWorkload("lan-write")
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: w.Name, seed: 5, workdir: t.TempDir()}
	codec := newOpCodec(o.seed)
	c, _, _, err := setUp(w, o, codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	l := startLoad(c, o.seed, codec, nil)
	l.abortAfter = 200 * time.Millisecond
	l.awaitOps(1000, 10*time.Second)
	l.phase.Store(phaseMeasure)
	// Every client starts ops inside the window before the cut.
	l.awaitOps(3000, 10*time.Second)
	for a := 0; a < w.Nodes; a++ {
		for b := a + 1; b < w.Nodes; b++ {
			c.net.Partition(timestamp.NodeID(a), timestamp.NodeID(b))
		}
	}
	time.Sleep(300 * time.Millisecond)
	l.phase.Store(phaseStop)
	l.stopAndWait()

	var attempted, failed, completed int64
	for _, oc := range append(append([]*outcome(nil), l.clients...), l.probes...) {
		attempted += oc.attempted
		failed += oc.failed
		completed += int64(len(oc.writeLat) + len(oc.readLat))
	}
	if clients := int64(len(l.clients)); failed < clients {
		t.Errorf("failed = %d, want at least one stuck op per client (%d)", failed, clients)
	}
	if attempted != completed+failed {
		t.Errorf("attempted %d != completed %d + failed %d", attempted, completed, failed)
	}
}

// TestBudgetCutsRounds checks that a run starts no round that the
// longest round so far says would end past runBudget, and always starts
// the first.
func TestBudgetCutsRounds(t *testing.T) {
	start := time.Now().Add(-runBudget + 10*time.Second)
	b := budget{start: start, last: start, longest: 20 * time.Second}
	if !b.another(0, rounds) {
		t.Error("the first round was not started")
	}
	if b.another(1, rounds) {
		t.Error("a 20 s round was started with 10 s of budget left")
	}
	b.longest = 5 * time.Second
	if !b.another(1, rounds) {
		t.Error("a 5 s round was not started with 10 s of budget left")
	}
}
