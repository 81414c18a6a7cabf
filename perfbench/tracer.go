package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// The traced run wraps the calls into each layer from the benchmark's own
// files — nothing inside the program changes:
//
//   - each node's transport endpoint (tracedEndpoint): counts Send and
//     Broadcast calls, times the inbound handler (the replica's post into
//     its event-loop inbox), and, at an op's leader, stamps the
//     FastProposeReply that completes the fast quorum and the outbound
//     Stable decision;
//   - each node's state-machine applier (tracedApplier): times every
//     store apply and stamps the leader's apply of an op;
//   - the client's submit callback: stamps the ack.
//
// From the stamps every acknowledged write gets four stages (submit →
// fast quorum → stable → apply → ack), and every sampleEvery-th op of a
// client keeps its spans for the span file and the self-time table.

// sampleEvery selects the ops whose spans are kept: op sequence numbers
// divisible by it.
const sampleEvery = 64

type tracer struct {
	codec opCodec
	fq    int // fast quorum size
	epoch time.Time
	nodes []*nodeTracer

	// measuring gates every count and sample below to measured windows;
	// one tracer may serve several clusters, one window each.
	measuring atomic.Bool
	sendCalls atomic.Int64 // Send/Broadcast calls
	applies   atomic.Int64
	postWait  *metrics.Histogram
	applyDur  *metrics.Histogram

	mu      sync.Mutex
	round   int          // the traced cluster the tracer serves now
	stages  [4][]float64 // ms: submit→fq, fq→stable, stable→apply, apply→ack
	partial int          // in-window acks missing a stamp
	spans   []span
}

func newTracer(codec opCodec, nodes, fq int) *tracer {
	t := &tracer{
		codec:    codec,
		fq:       fq,
		epoch:    time.Now(),
		postWait: metrics.NewHistogram(),
		applyDur: metrics.NewHistogram(),
	}
	for i := 0; i < nodes; i++ {
		t.nodes = append(t.nodes, &nodeTracer{
			t:     t,
			self:  timestamp.NodeID(i),
			byVal: make(map[uint64]*opTrace),
			byID:  make(map[groupCmd]*opTrace),
		})
	}
	return t
}

// opTrace is the stamps of one in-flight write at its leader (the node
// its client submitted to).
type opTrace struct {
	ref                                      opRef
	sampled                                  bool
	id                                       groupCmd // bound when the leader broadcasts the proposal
	bound                                    bool
	replies                                  int
	submit, fq, stable, applyStart, applyEnd time.Duration
	sub                                      []span // sampled ops: transport and loop spans
}

// nodeTracer holds one node's in-flight traced writes.
type nodeTracer struct {
	t    *tracer
	self timestamp.NodeID

	mu    sync.Mutex
	byVal map[uint64]*opTrace
	byID  map[groupCmd]*opTrace
}

// groupCmd names a command within its consensus group: each group's
// replica numbers its commands independently, so IDs repeat across the
// groups of a sharded node.
type groupCmd struct {
	group int32
	id    command.ID
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// nextRound moves the tracer to a new cluster: every round replays the
// same seeded ops, so spans carry their round to stay apart.
func (t *tracer) nextRound() {
	t.mu.Lock()
	t.round++
	t.mu.Unlock()
}

// submit registers a write about to be submitted at node home.
func (t *tracer) submit(home int, val uint64, ref opRef) {
	nt := t.nodes[home]
	op := &opTrace{ref: ref, sampled: ref.Seq%sampleEvery == 0, submit: t.now()}
	nt.mu.Lock()
	nt.byVal[val] = op
	nt.mu.Unlock()
}

// ack completes a write at its home node: at is when the replica invoked
// the submit callback, woke when the client goroutine ran again. The
// op's stamps become stage samples (in the window) and, for sampled ops,
// spans.
func (t *tracer) ack(home int, val uint64, at, woke time.Duration) {
	nt := t.nodes[home]
	nt.mu.Lock()
	p := nt.byVal[val]
	var op opTrace
	if p != nil {
		op = *p
		delete(nt.byVal, val)
		// Late replies for a finished op find nothing.
		if op.bound {
			delete(nt.byID, op.id)
		}
	}
	nt.mu.Unlock()
	if p == nil {
		return
	}
	complete := op.fq > 0 && op.stable > 0 && op.applyStart > 0 && op.applyEnd > 0
	if !t.measuring.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !complete {
		t.partial++
		return
	}
	ms := func(a, b time.Duration) float64 { return float64(b-a) / float64(time.Millisecond) }
	t.stages[0] = append(t.stages[0], ms(op.submit, op.fq))
	t.stages[1] = append(t.stages[1], ms(op.fq, op.stable))
	t.stages[2] = append(t.stages[2], ms(op.stable, op.applyStart))
	t.stages[3] = append(t.stages[3], ms(op.applyEnd, at))
	if !op.sampled {
		return
	}
	// Span tree: the op, its four stages (the apply split from the wait
	// before it), and the transport/loop calls made inside them.
	add := func(id, parent int, name string, a, b time.Duration) {
		t.spans = append(t.spans, span{Round: t.round, Op: op.ref, ID: id, Parent: parent, Name: name, Start: a, End: b})
	}
	add(1, 0, "op.write", op.submit, woke)
	add(2, 1, "caesar.fast_quorum", op.submit, op.fq)
	add(3, 1, "caesar.to_stable", op.fq, op.stable)
	add(4, 1, "caesar.deliver", op.stable, op.applyStart)
	add(5, 1, "kvstore.apply", op.applyStart, op.applyEnd)
	add(6, 1, "client.ack", op.applyEnd, at)
	add(7, 1, "client.wake", at, woke)
	for i, s := range op.sub {
		parent := 2
		switch {
		case s.Start >= op.stable:
			parent = 4
		case s.Start >= op.fq:
			parent = 3
		}
		add(8+i, parent, s.Name, s.Start, s.End)
	}
}

// leaderOp resolves a command this node leads to its traced op.
func (nt *nodeTracer) leaderOp(gc groupCmd) *opTrace {
	if gc.id.Node != nt.self {
		return nil
	}
	nt.mu.Lock()
	op := nt.byID[gc]
	nt.mu.Unlock()
	return op
}

// unwrap strips the shard mux's envelope from a payload, returning the
// consensus group it belongs to (0 on an unsharded node).
func unwrap(payload any) (int32, any) {
	if env, ok := payload.(*shard.Envelope); ok {
		return env.Shard, env.Payload
	}
	return 0, payload
}

// tracedEndpoint wraps one node's transport endpoint.
type tracedEndpoint struct {
	transport.Endpoint
	nt *nodeTracer
}

func (e *tracedEndpoint) Send(to timestamp.NodeID, payload any) {
	if e.nt.t.measuring.Load() {
		e.nt.t.sendCalls.Add(1)
	}
	e.Endpoint.Send(to, payload)
}

func (e *tracedEndpoint) Broadcast(payload any) {
	t := e.nt.t
	if t.measuring.Load() {
		t.sendCalls.Add(1)
	}
	var op *opTrace
	var name string
	group, inner := unwrap(payload)
	switch m := inner.(type) {
	case *caesar.FastPropose:
		// The leader's proposal carries the op's value: bind the command
		// ID CAESAR just assigned to the traced op.
		if ref, ok := t.codec.valueRef(m.Cmd.Value); ok && m.Cmd.ID.Node == e.nt.self {
			val := t.codec.encode(ref)
			e.nt.mu.Lock()
			if op = e.nt.byVal[val]; op != nil && !op.bound {
				op.id, op.bound = groupCmd{group, m.Cmd.ID}, true
				e.nt.byID[op.id] = op
			}
			e.nt.mu.Unlock()
		}
		name = "transport.broadcast_propose"
	case *caesar.Stable:
		if op = e.nt.leaderOp(groupCmd{group, m.Cmd.ID}); op != nil {
			at := t.now()
			e.nt.mu.Lock()
			if op.stable == 0 {
				op.stable = at
				if op.fq == 0 {
					// Decided before a fast quorum replied (slow path
					// after the fast-quorum timeout): the deciding
					// quorum ends the first stage.
					op.fq = at
				}
			}
			e.nt.mu.Unlock()
		}
		name = "transport.broadcast_stable"
	}
	if op == nil || !op.sampled {
		e.Endpoint.Broadcast(payload)
		return
	}
	start := t.now()
	e.Endpoint.Broadcast(payload)
	end := t.now()
	e.nt.mu.Lock()
	op.sub = append(op.sub, span{Name: name, Start: start, End: end})
	e.nt.mu.Unlock()
}

// SetHandler wraps the inbound handler: the replica's handler posts the
// message into its event-loop inbox, so its duration is the time the
// transport goroutine blocks on that post.
func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	t := e.nt.t
	e.Endpoint.SetHandler(func(from timestamp.NodeID, payload any) {
		var op *opTrace
		group, inner := unwrap(payload)
		if m, ok := inner.(*caesar.FastProposeReply); ok {
			if op = e.nt.leaderOp(groupCmd{group, m.CmdID}); op != nil {
				at := t.now()
				e.nt.mu.Lock()
				if op.replies++; op.replies == t.fq && op.fq == 0 && op.stable == 0 {
					op.fq = at
				}
				e.nt.mu.Unlock()
			}
		}
		start := time.Now()
		h(from, payload)
		d := time.Since(start)
		if t.measuring.Load() {
			t.postWait.Observe(d)
		}
		if op != nil && op.sampled {
			s := start.Sub(t.epoch)
			e.nt.mu.Lock()
			op.sub = append(op.sub, span{Name: "protocol.post_reply", Start: s, End: s + d})
			e.nt.mu.Unlock()
		}
	})
}

// tracedApplier wraps a node's state-machine applier (the stack's
// innermost layer: below the log and the commit table). It forwards
// every applier facet the batch applier has, so the layers above see
// the same capabilities they would without the wrapper.
type tracedApplier struct {
	inner batch.Applier
	nt    *nodeTracer
}

var _ protocol.TimestampedAtomicApplier = (*tracedApplier)(nil)

func (a *tracedApplier) Apply(cmd command.Command) []byte {
	return a.ApplyAt(cmd, timestamp.Zero)
}

func (a *tracedApplier) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	start := a.nt.t.now()
	v := a.inner.ApplyAt(cmd, ts)
	a.done(start, cmd)
	return v
}

func (a *tracedApplier) ApplyAll(cmds []command.Command) [][]byte {
	return a.ApplyAllAt(cmds, timestamp.Zero)
}

func (a *tracedApplier) ApplyAllAt(cmds []command.Command, ts timestamp.Timestamp) [][]byte {
	start := a.nt.t.now()
	v := a.inner.ApplyAllAt(cmds, ts)
	for _, c := range cmds {
		a.done(start, c)
	}
	return v
}

// done books one apply and stamps it on the op when this node leads it.
func (a *tracedApplier) done(start time.Duration, cmd command.Command) {
	t := a.nt.t
	end := t.now()
	if t.measuring.Load() {
		t.applies.Add(1)
		t.applyDur.Observe(end - start)
	}
	if cmd.Op != command.OpPut {
		return
	}
	ref, ok := t.codec.valueRef(cmd.Value)
	if !ok {
		return
	}
	val := t.codec.encode(ref)
	a.nt.mu.Lock()
	if op := a.nt.byVal[val]; op != nil && op.applyStart == 0 {
		op.applyStart, op.applyEnd = start, end
	}
	a.nt.mu.Unlock()
}
