package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// workload is one named traffic shape. Every workload runs closed-loop
// clients (§VI: each client waits for its reply before issuing the next
// op), as goroutines in this process, against an in-process cluster.
type workload struct {
	Name string
	Why  string
	// Nodes is the cluster size; ClientsPerNode closed-loop clients are
	// homed on every node.
	Nodes          int
	ClientsPerNode int
	// Shards is the consensus-group count per node (1 = unsharded).
	Shards int
	// TCP wires the nodes over loopback tcpnet + wire, as caesar-server
	// does; otherwise they share one memnet network.
	TCP bool
	// GeoScale > 0 injects the paper's EC2 inter-site delays
	// (memnet.GeoDelay) at that scale, with GeoJitter scaled alike.
	GeoScale  float64
	GeoJitter time.Duration
	// Durable gives every node a write-ahead log in a fresh directory.
	Durable bool
	// ConflictPct is the §VI conflict rule: the share of ops drawn from
	// the shared pool of SharedPool keys.
	ConflictPct float64
	// ReadPct is the share of a client's ops that are node-local reads.
	ReadPct float64
	// Rate is the workload's nominal throughput in client ops/s, about
	// what a 2-vCPU VM sustained when the benchmark was defined. It sizes
	// every round's warmup and window as a fixed number of client ops
	// (see drive).
	Rate float64
	// ProbeEvery paces one read probe per node on workloads whose
	// clients only write, so read latency is measured on every workload;
	// zero when the clients read themselves. A probe reads the key of a
	// local client's in-flight private write (see runProbe).
	ProbeEvery time.Duration
}

// sharedPool is the §VI shared key pool size.
const sharedPool = 100

var workloads = []workload{
	{
		Name: "lan-write", Nodes: 3, ClientsPerNode: 16, Shards: 1,
		ConflictPct: 2, Rate: 30000, ProbeEvery: 2 * time.Millisecond,
		Why: "CPU-bound write hot path on memnet with no delay, codec or WAL",
	},
	{
		Name: "tcp-readwrite", Nodes: 3, ClientsPerNode: 16, Shards: 2, TCP: true,
		ConflictPct: 2, ReadPct: 50, Rate: 25000,
		Why: "loopback tcpnet+wire, 2 groups, 50% local reads: codec, sockets, shard mux and read fences",
	},
	{
		Name: "geo-conflict30", Nodes: 5, ClientsPerNode: 10, Shards: 1,
		GeoScale: 0.05, GeoJitter: 2 * time.Millisecond,
		ConflictPct: 30, Rate: 7000, ProbeEvery: 5 * time.Millisecond,
		Why: "the paper's headline point: 5 sites at EC2 delays x0.05, 30% conflicts; latency set by protocol rounds",
	},
	{
		Name: "lan-durable", Nodes: 3, ClientsPerNode: 16, Shards: 1, Durable: true,
		ConflictPct: 2, Rate: 5000, ProbeEvery: 2 * time.Millisecond,
		Why: "lan-write plus the group-commit WAL with fsync on the machine's disk: the only workload where internal/wal works",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Op values. Every write carries an 8-byte value unique to the op: the
// op's (client, sequence) pair packed into 64 bits and scrambled by an
// invertible, seed-keyed map. A value read back from any replica thus
// names exactly one client op, which is how the output check tells
// writers apart and how traced spans map to ops.

const opSeqBits = 40

// valueMul is odd, so multiplication by it is a bijection mod 2^64.
const valueMul = 0x9e3779b97f4a7c15

// valueMulInv is valueMul's multiplicative inverse mod 2^64.
var valueMulInv = func() uint64 {
	inv := uint64(valueMul) // Newton iteration doubles correct bits each step
	for i := 0; i < 5; i++ {
		inv *= 2 - valueMul*inv
	}
	return inv
}()

// opCodec encodes and decodes op values under one seed.
type opCodec struct{ key uint64 }

func newOpCodec(seed int64) opCodec {
	return opCodec{key: uint64(seed)*0xbf58476d1ce4e5b9 ^ 0x94d049bb133111eb}
}

// opRef names one client op.
type opRef struct {
	Client int
	Seq    uint64
}

func (c opCodec) encode(r opRef) uint64 {
	raw := uint64(r.Client)<<opSeqBits | r.Seq&(1<<opSeqBits-1)
	return (raw ^ c.key) * valueMul
}

func (c opCodec) decode(v uint64) opRef {
	raw := v*valueMulInv ^ c.key
	return opRef{Client: int(raw >> opSeqBits), Seq: raw & (1<<opSeqBits - 1)}
}

func (c opCodec) value(r opRef) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, c.encode(r))
	return b
}

// valueRef decodes an op value; ok is false for a value that is not 8
// bytes long, which no client writes.
func (c opCodec) valueRef(b []byte) (opRef, bool) {
	if len(b) != 8 {
		return opRef{}, false
	}
	return c.decode(binary.BigEndian.Uint64(b)), true
}

// keygen draws one client's keys by the §VI conflict rule, as
// internal/workload's generator does: with probability ConflictPct a key
// from the shared pool, otherwise a fresh private key no other client
// ever writes.
type keygen struct {
	rng      *rand.Rand
	conflict float64
	readPct  float64
	prefix   string
	privSeq  uint64
}

func newKeygen(seed int64, client int, w workload) *keygen {
	return &keygen{
		rng:      rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)),
		conflict: w.ConflictPct,
		readPct:  w.ReadPct,
		prefix:   "c" + strconv.Itoa(client),
	}
}

// isRead draws whether the next op is a read.
func (g *keygen) isRead() bool {
	return g.readPct > 0 && g.rng.Float64()*100 < g.readPct
}

// shared draws whether the next key comes from the shared pool, and which.
func (g *keygen) shared() (idx int, ok bool) {
	if g.rng.Float64()*100 < g.conflict {
		return g.rng.Intn(sharedPool), true
	}
	return 0, false
}

// nextPrivate returns a fresh private key and its per-client index.
func (g *keygen) nextPrivate() (string, uint64) {
	g.privSeq++
	return privateKey(g.prefix, g.privSeq), g.privSeq
}

func privateKey(prefix string, seq uint64) string {
	return prefix + "-" + strconv.FormatUint(seq, 36)
}

func sharedKey(idx int) string { return "shared-" + strconv.Itoa(idx) }
