package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/obs"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/tcpnet"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
)

// The server's default taps (cmd/caesar-server flag defaults): a
// 4096-event trace ring, a 1024-event flight recorder and a stall
// watchdog tripping at 10s, scanning every second.
const (
	traceRingEvents   = 4096
	flightRingEvents  = 1024
	stallThreshold    = 10 * time.Second
	watchdogInterval  = time.Second
	setupWriteTimeout = 30 * time.Second
)

// node is one replica built the way caesar-server builds it.
type node struct {
	stk *stack.Stack
	met *metrics.Recorder
	tcp *tcpnet.Transport // nil on memnet
}

// cluster is one in-process deployment of a workload.
type cluster struct {
	w      workload
	nodes  []*node
	net    *memnet.Network // nil over TCP
	walDir string          // "" unless durable
}

// buildCluster constructs and starts every node. With a tracer, each
// node's endpoint and applier are wrapped (see tracer.go); otherwise the
// wiring is exactly the server's.
func buildCluster(w workload, seed int64, workdir string, tr *tracer) (*cluster, error) {
	c := &cluster{w: w}
	eps := make([]transport.Endpoint, w.Nodes)
	if w.TCP {
		addrs, err := freeAddrs(w.Nodes)
		if err != nil {
			return nil, err
		}
		for i := range eps {
			t, err := tcpnet.Listen(tcpnet.Config{Self: timestamp.NodeID(i), Addrs: addrs})
			if err != nil {
				c.stop()
				return nil, err
			}
			c.nodes = append(c.nodes, &node{tcp: t})
			eps[i] = t
		}
	} else {
		cfg := memnet.Config{Nodes: w.Nodes, Seed: seed}
		if w.GeoScale > 0 {
			cfg.Delay = memnet.GeoDelay(w.GeoScale)
			cfg.Jitter = time.Duration(float64(w.GeoJitter) * w.GeoScale)
		}
		c.net = memnet.New(cfg)
		for i := range eps {
			c.nodes = append(c.nodes, &node{})
			eps[i] = c.net.Endpoint(timestamp.NodeID(i))
		}
	}
	if w.Durable {
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		c.walDir = dir
	}
	for i, n := range c.nodes {
		ep := eps[i]
		scfg := serverConfig(i, w.Shards)
		n.met = scfg.Metrics
		if c.walDir != "" {
			scfg.DataDir = filepath.Join(c.walDir, "node"+strconv.Itoa(i))
		}
		if tr != nil {
			nt := tr.nodes[i]
			ep = &tracedEndpoint{Endpoint: ep, nt: nt}
			store := kvstore.New()
			scfg.Store = store
			scfg.Applier = &tracedApplier{inner: batch.NewApplier(store), nt: nt}
		}
		stk, err := stack.Build(ep, scfg)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		n.stk = stk
	}
	for _, n := range c.nodes {
		n.stk.Start()
	}
	return c, nil
}

// serverConfig is the stack configuration caesar-server builds with its
// default flags: obs registry, trace ring, flight recorder, stall
// watchdog, live rebalancing, and production caesar.Config defaults
// (heartbeats, failure detection, GC, retransmission).
func serverConfig(id, shards int) stack.Config {
	ring := trace.NewRing(traceRingEvents)
	rec := flight.New(timestamp.NodeID(id), flightRingEvents)
	return stack.Config{
		Shards:           shards,
		Metrics:          metrics.NewRecorder(),
		Obs:              obs.NewRegistry(),
		Trace:            ring,
		Rebalance:        true,
		Flight:           rec,
		StallThreshold:   stallThreshold,
		WatchdogInterval: watchdogInterval,
		OnStall: func(d *flight.Diagnosis) {
			for _, s := range d.Stalls {
				fmt.Fprintf(os.Stderr, "node %d STALL %s\n", id, s)
			}
		},
		Build: func(g int, sep transport.Endpoint, app protocol.Applier, seed wal.GroupSeed, gmet *metrics.Recorder, ctd *contend.Group) protocol.Engine {
			return caesar.New(sep, app, caesar.Config{
				Metrics:      gmet,
				Contend:      ctd,
				Trace:        ring,
				Flight:       rec,
				FlightGroup:  int32(g),
				Predelivered: seed.Delivered,
				SeqFloor:     seed.SeqFloor,
				ClockSeed:    seed.ClockSeed,
				ReserveSeq:   seed.ReserveSeq,
				ReserveClock: seed.ReserveClock,
			})
		},
	}
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// writeOnce submits one write through node i and waits for its ack.
func (c *cluster) writeOnce(ctx context.Context, i int, key string, val []byte) error {
	ch := make(chan protocol.Result, 1)
	c.nodes[i].stk.Engine.Submit(command.Put(key, val), func(r protocol.Result) { ch <- r })
	select {
	case r := <-ch:
		return r.Err
	case <-ctx.Done():
		return fmt.Errorf("write through node %d: %w", i, ctx.Err())
	}
}

// stop shuts every node down and releases the network and the WAL dir.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		if n.stk != nil {
			n.stk.Stop()
		}
	}
	for _, n := range c.nodes {
		if n.tcp != nil {
			_ = n.tcp.Close() // shutdown: the transport's goroutines are joined either way
		}
	}
	if c.net != nil {
		c.net.Close()
	}
	if c.walDir != "" {
		_ = os.RemoveAll(c.walDir) // scratch data of a finished run
	}
}
