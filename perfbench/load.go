package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
)

// Run phases: an op counts in the window's figures when it started while
// the phase was phaseMeasure, however and whenever it ends; phaseStop
// makes the clients finish their in-flight op and return.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// abortAfter bounds how long clients may take to finish their last op
// once the window closed; an op still pending then is abandoned, and
// counts as failed if it started in the window.
const abortAfter = 5 * time.Second

// sharedOp is one op on a shared-pool key: a write's value (every write,
// acked or not) or a read's result (nil when the key was absent).
type sharedOp struct {
	Val uint64
	Idx int
	Nil bool
}

// outcome is what one client (or read probe) saw, kept for the window's
// figures and the output check.
type outcome struct {
	writeLat, readLat []int64  // ns, ops of the window that completed
	attempted, failed int64    // ops started in the window
	privAcked         []uint64 // private write i (0-based) → acked op seq, 0 if not acked
	sharedWrites      []sharedOp
	sharedReads       []sharedOp
	violations        []string
}

// load is one run's client population.
type load struct {
	c       *cluster
	w       workload
	codec   opCodec
	tr      *tracer
	phase   atomic.Int32
	abort   context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	clients []*outcome
	probes  []*outcome
	// abortAfter is the grace the clients get in stopAndWait.
	abortAfter time.Duration
	// inflight holds each client's private write while it awaits its
	// ack, for the read probes of its node.
	inflight []atomic.Pointer[privWrite]
	// ended counts client ops that ended, completed or failed (probe
	// reads are not counted); the op that reaches goal signals
	// goalReached (see awaitOps).
	ended       atomic.Int64
	goal        atomic.Int64
	goalReached chan struct{}
}

// privWrite is a private-key write a client has submitted.
type privWrite struct {
	key string
	val []byte
	at  time.Time
}

// probeMinAge is how long a write must have been in flight before a
// probe reads its key: long enough, nearly always, for the leader's event
// loop to have proposed it, so the read's fence parks behind it.
const probeMinAge = 200 * time.Microsecond

func startLoad(c *cluster, seed int64, codec opCodec, tr *tracer) *load {
	l := &load{c: c, w: c.w, codec: codec, tr: tr, abortAfter: abortAfter, goalReached: make(chan struct{}, 1)}
	l.abort, l.cancel = context.WithCancel(context.Background())
	l.inflight = make([]atomic.Pointer[privWrite], c.w.Nodes*c.w.ClientsPerNode)
	n := 0
	for home := 0; home < c.w.Nodes; home++ {
		for j := 0; j < c.w.ClientsPerNode; j++ {
			o := &outcome{}
			l.clients = append(l.clients, o)
			l.wg.Add(1)
			go l.runClient(n, home, newKeygen(seed, n, c.w), o)
			n++
		}
	}
	if c.w.ProbeEvery > 0 {
		for home := 0; home < c.w.Nodes; home++ {
			o := &outcome{}
			l.probes = append(l.probes, o)
			l.wg.Add(1)
			go l.runProbe(home, rand.New(rand.NewSource(seed*7919+int64(home))), o)
		}
	}
	return l
}

// opEnded books one ended op against the current goal.
func (l *load) opEnded() {
	if l.ended.Add(1) == l.goal.Load() {
		select {
		case l.goalReached <- struct{}{}:
		default:
		}
	}
}

// awaitOps blocks until n more ops have ended, or until max has passed.
func (l *load) awaitOps(n int64, max time.Duration) {
	goal := l.ended.Load() + n
	l.goal.Store(goal)
	timer := time.NewTimer(max)
	defer timer.Stop()
	// A signal may be stale (a goal an earlier wait gave up on), so the
	// count decides.
	for l.ended.Load() < goal {
		select {
		case <-l.goalReached:
		case <-timer.C:
			return
		}
	}
}

// stopAndWait closes the window for good and waits for every client to
// finish its in-flight op; ops that cannot finish within l.abortAfter are
// abandoned, and count as failed if they started in the window.
func (l *load) stopAndWait() {
	l.phase.Store(phaseStop)
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(l.abortAfter):
		l.cancel()
		<-done
	}
	l.cancel()
}

type result struct {
	seq uint64
	res protocol.Result
	at  time.Duration // callback instant on the tracer's clock (traced runs)
}

func (l *load) runClient(id, home int, g *keygen, o *outcome) {
	defer l.wg.Done()
	eng := l.c.nodes[home].stk.Engine
	reads := l.c.nodes[home].stk.Reads
	// Buffered beyond one so a late callback for an abandoned op never
	// blocks the replica; stale results are told apart by sequence.
	results := make(chan result, 4)
	var seq uint64
	var lastKey string
	var lastVal []byte
	for l.phase.Load() != phaseStop {
		seq++
		inWindow := l.phase.Load() == phaseMeasure
		start := time.Now()
		if g.isRead() {
			key, want, private := lastKey, lastVal, lastKey != ""
			idx, shared := g.shared()
			if shared || !private {
				key, private = sharedKey(idx), false
			}
			val, present, err := reads.Read(l.abort, key)
			end := time.Now()
			ok := err == nil
			switch {
			case !ok:
			case private && (!present || !bytes.Equal(val, want)):
				o.violations = append(o.violations, fmt.Sprintf("client %d read %s: got %x (present %v), its acked write was %x", id, key, val, present, want))
			case !private:
				o.sharedReads = append(o.sharedReads, l.sharedResult(idx, val, present))
			}
			o.record(inWindow, ok, true, end.Sub(start))
			l.opEnded()
			continue
		}
		idx, shared := g.shared()
		var key string
		var priv uint64
		if shared {
			key = sharedKey(idx)
		} else {
			key, priv = g.nextPrivate()
		}
		ref := opRef{Client: id, Seq: seq}
		vbits := l.codec.encode(ref)
		val := make([]byte, 8)
		binary.BigEndian.PutUint64(val, vbits)
		if shared {
			o.sharedWrites = append(o.sharedWrites, sharedOp{Val: vbits, Idx: idx})
		} else {
			o.privAcked = append(o.privAcked, 0)
		}
		if l.tr != nil {
			l.tr.submit(home, vbits, ref)
		}
		probed := !shared && l.w.ProbeEvery > 0
		if probed {
			l.inflight[id].Store(&privWrite{key: key, val: val, at: start})
		}
		mySeq := seq
		eng.Submit(command.Put(key, val), func(r protocol.Result) {
			res := result{seq: mySeq, res: r}
			if l.tr != nil {
				res.at = l.tr.now()
			}
			select {
			case results <- res:
			default:
			}
		})
		ok := false
		var ackAt time.Duration
	wait:
		for {
			select {
			case r := <-results:
				if r.seq != mySeq {
					continue
				}
				ok, ackAt = r.res.Err == nil, r.at
				break wait
			case <-l.abort.Done():
				break wait
			}
		}
		end := time.Now()
		if probed {
			l.inflight[id].Store(nil)
		}
		if ok {
			if l.tr != nil {
				l.tr.ack(home, vbits, ackAt, l.tr.now())
			}
			if !shared {
				o.privAcked[priv-1] = seq
				lastKey, lastVal = key, val
			}
		}
		o.record(inWindow, ok, false, end.Sub(start))
		l.opEnded()
	}
}

// sharedResult keeps a shared-key read for the output check.
func (l *load) sharedResult(idx int, val []byte, present bool) sharedOp {
	if !present {
		return sharedOp{Idx: idx, Nil: true}
	}
	if len(val) != 8 {
		// No client writes such a value; keep it so the check flags it.
		return sharedOp{Idx: idx, Val: 0}
	}
	return sharedOp{Idx: idx, Val: binary.BigEndian.Uint64(val)}
}

// runProbe is a read probe: node-local reads, at exponentially
// distributed intervals averaging ProbeEvery, of the key a client homed
// on the node is writing right now. Workloads whose clients only write
// thus still measure read latency under their write load: a read of a
// key with a write in flight parks at its fence until that write is
// applied here (the read-fence path internal/reads exists for). Poisson
// arrivals sample the node uniformly in time, so the probe cannot lock
// onto the phase of the replica's periodic work. The key has one writer
// and one write, so the read must return that write's value or nothing.
//
// Probe reads are paced by the clock, not by the program, so they give
// read latency and count as attempted (and failed) ops, but they are not
// completed ops: throughput, the per-op figures and the window's op
// goal count the closed-loop clients' ops only.
func (l *load) runProbe(home int, rng *rand.Rand, o *outcome) {
	defer l.wg.Done()
	reads := l.c.nodes[home].stk.Reads
	timer := time.NewTimer(0)
	defer timer.Stop()
	for l.phase.Load() != phaseStop {
		select {
		case <-timer.C:
		case <-l.abort.Done():
			return
		}
		timer.Reset(time.Duration(rng.ExpFloat64() * float64(l.w.ProbeEvery)))
		var pw *privWrite
		for tries := 0; tries < l.w.ClientsPerNode && pw == nil; tries++ {
			id := home*l.w.ClientsPerNode + rng.Intn(l.w.ClientsPerNode)
			if p := l.inflight[id].Load(); p != nil && time.Since(p.at) >= probeMinAge {
				pw = p
			}
		}
		if pw == nil {
			continue
		}
		inWindow := l.phase.Load() == phaseMeasure
		start := time.Now()
		val, present, err := reads.Read(l.abort, pw.key)
		end := time.Now()
		switch {
		case err != nil:
		case present && !bytes.Equal(val, pw.val):
			o.violations = append(o.violations, fmt.Sprintf("probe read %s at node %d: got %x, its only write is %x",
				pw.key, home, val, pw.val))
		}
		o.record(inWindow, err == nil, true, end.Sub(start))
	}
}

// record books one ended op; only ops started inside the window count.
func (o *outcome) record(inWindow, ok, read bool, d time.Duration) {
	if !inWindow {
		return
	}
	o.attempted++
	switch {
	case !ok:
		o.failed++
	case read:
		o.readLat = append(o.readLat, int64(d))
	default:
		o.writeLat = append(o.writeLat, int64(d))
	}
}
