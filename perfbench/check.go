package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"
)

// quiesceTimeout bounds the wait for the replicas to apply the same
// commands after the clients stopped.
const quiesceTimeout = 30 * time.Second

// maxReported caps how many violations of each kind a failed check lists.
const maxReported = 5

// quiesce waits until every replica has applied the same number of
// commands and that number held still for a few polls.
func (c *cluster) quiesce() error {
	deadline := time.Now().Add(quiesceTimeout)
	var last int64 = -1
	steady := 0
	for time.Now().Before(deadline) {
		applied := c.nodes[0].stk.Store.Applied()
		same := true
		for _, n := range c.nodes[1:] {
			if n.stk.Store.Applied() != applied {
				same = false
			}
		}
		if same && applied == last {
			if steady++; steady >= 3 {
				return nil
			}
		} else {
			steady = 0
		}
		last = applied
		time.Sleep(20 * time.Millisecond)
	}
	var counts []int64
	for _, n := range c.nodes {
		counts = append(counts, n.stk.Store.Applied())
	}
	return fmt.Errorf("replicas did not converge within %v: applied %v", quiesceTimeout, counts)
}

// checkOutput compares what the replicas hold against what the clients
// were acknowledged, value by value (not by audit digest, which XOR-folds
// writes and cannot see two replicas applying the same writes in a
// different order). It reports every violation found:
//
//   - replicas disagree on a key's presence or value;
//   - a single-writer key (a client's private key, a set-up key) does
//     not hold its acknowledged value;
//   - a shared-pool key, or a read of one, holds a value no client wrote
//     to that key;
//   - a client's read of its own last private write returned anything
//     else (recorded by the client as it happened).
func checkOutput(c *cluster, l *load, codec opCodec, setup map[string][]byte) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if err := c.quiesce(); err != nil {
		return []string{err.Error()}
	}
	states := make([]map[string][]byte, len(c.nodes))
	for i, n := range c.nodes {
		states[i] = n.stk.Store.Export(nil)
	}
	ref := states[0]
	for i, st := range states[1:] {
		bad := 0
		for k, v := range ref {
			if w, ok := st[k]; !ok || !bytes.Equal(v, w) {
				if bad++; bad <= maxReported {
					add("replica %d disagrees with replica 0 on %q: %x vs %x (present %v)", i+1, k, w, v, ok)
				}
			}
		}
		for k := range st {
			if _, ok := ref[k]; !ok {
				if bad++; bad <= maxReported {
					add("replica %d holds %q, absent on replica 0", i+1, k)
				}
			}
		}
		if bad > maxReported {
			add("replica %d: %d disagreeing keys in all", i+1, bad)
		}
	}

	bad := 0
	for k, want := range setup {
		if got := ref[k]; !bytes.Equal(got, want) {
			if bad++; bad <= maxReported {
				add("set-up key %q holds %x, acknowledged %x", k, got, want)
			}
		}
	}
	sharedBy := map[uint64]int{} // value → shared key index it was written to
	for id, o := range l.clients {
		prefix := "c" + fmt.Sprint(id)
		for i, seq := range o.privAcked {
			if seq == 0 {
				continue
			}
			k := privateKey(prefix, uint64(i+1))
			want := codec.value(opRef{Client: id, Seq: seq})
			if got := ref[k]; !bytes.Equal(got, want) {
				if bad++; bad <= maxReported {
					add("private key %q holds %x, acknowledged %x", k, got, want)
				}
			}
		}
		for _, w := range o.sharedWrites {
			sharedBy[w.Val] = w.Idx
		}
	}
	if bad > maxReported {
		add("%d single-writer keys wrong in all", bad)
	}

	checkShared := func(what string, s sharedOp) {
		if s.Nil {
			return
		}
		if idx, ok := sharedBy[s.Val]; !ok || idx != s.Idx {
			if bad++; bad <= 2*maxReported {
				add("%s of %s: value %016x was never written to it", what, sharedKey(s.Idx), s.Val)
			}
		}
	}
	bad = 0
	for idx := 0; idx < sharedPool; idx++ {
		v, ok := ref[sharedKey(idx)]
		if !ok {
			continue
		}
		s := sharedOp{Idx: idx}
		if len(v) == 8 {
			s.Val = binary.BigEndian.Uint64(v)
		}
		checkShared("final state", s)
	}
	for _, o := range append(append([]*outcome(nil), l.clients...), l.probes...) {
		for _, s := range o.sharedReads {
			checkShared("read", s)
		}
	}
	var vs []string
	for _, o := range append(append([]*outcome(nil), l.clients...), l.probes...) {
		vs = append(vs, o.violations...)
	}
	sort.Strings(vs)
	if len(vs) > maxReported {
		add("%d reads of a client's own last write returned another value", len(vs))
		vs = vs[:maxReported]
	}
	return append(out, vs...)
}
