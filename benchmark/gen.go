package main

// The workload generator is frozen here on purpose: the benchmark of record
// must not change when internal/ycsb or internal/bench are simplified or
// deleted. Everything the system under test receives — keys, values, the
// operation mix, the order of operations of every session — is a pure
// function of (workload, seed, session index).

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"wren/internal/core"
	"wren/internal/sharding"
)

// spec describes one workload: the deployment it runs on, the shape of its
// data and the mix its sessions issue.
type spec struct {
	name string
	why  string

	dcs        int
	partitions int
	backend    string // store/backend name
	fsync      string // durable backends only

	keysPerPartition int
	valueBytes       int
	theta            float64

	// sessionsPerProc is the number of closed-loop sessions per processor;
	// in geo_visibility these are the readers in DC 1, next to the one
	// scheduled writer in DC 0.
	sessionsPerProc int

	mix  []mixEntry
	geo  bool // scheduled writer in DC 0 + reader in DC 1
	kill bool // end with Kill() -> reopen -> acked writes readable

	gcInterval time.Duration // 0 = the server's default (500 ms), negative = off
}

// mixEntry is one transaction shape and its share of the draws.
type mixEntry struct {
	share  float64
	reads  int // keys in the transaction's single Tx.Read call
	writes int // keys written, distinct from the keys read
	scan   int // consecutive keys one Tx.Scan call returns (0 = no scan)
}

// writerRate is geo_visibility's fixed update schedule. A fixed rate keeps
// replication load independent of commit speed, so a faster commit path
// cannot show up as a visibility regression.
const writerRate = 1000 // update tx/s

var specs = []*spec{
	{
		name: "read_mem",
		why:  "memory backend, 19 reads + 1 write per tx: the nonblocking read path does the work; txlog, sst and replication do none",
		dcs:  1, partitions: 2, backend: "memory",
		keysPerPartition: 1000, valueBytes: 8, theta: 0.99,
		sessionsPerProc: 1,
		mix:             []mixEntry{{share: 1, reads: 19, writes: 1}},
	},
	{
		name: "commit_durable",
		why:  "sst backend, fsync=always, 4 reads + 4 writes of 1 KiB per tx, 2 sessions per core: prepare, txlog fsync, decision, apply, flush and compaction dominate",
		dcs:  1, partitions: 2, backend: "sst", fsync: "always",
		keysPerPartition: 4096, valueBytes: 1024, theta: 0.99,
		// Two committers per coordinator give group commit and decision
		// batching something to batch. With four, the sessions fall into
		// convoys behind the shared fsyncs and a run lands in one of two
		// regimes: visibility and the read/commit split then differ by 25 to
		// 40 % between runs of one commit, against 6 % with two.
		sessionsPerProc: 2,
		mix:             []mixEntry{{share: 1, reads: 4, writes: 4}},
		kill:            true,
	},
	{
		name: "geo_visibility",
		why:  "2 DCs, fixed-rate writer in DC 0 and readers in DC 1: the apply, replicate and stabilization loops set when a remote update becomes visible",
		dcs:  2, partitions: 2, backend: "memory",
		keysPerPartition: 1000, valueBytes: 8, theta: 0.99,
		sessionsPerProc: 1,
		geo:             true,
		// Version GC is off here until its floor is fixed: the floor is the
		// oldest local snapshot time only, but a version replicated from
		// another DC becomes visible by the remote snapshot time, which lags
		// it. A GC pass that finds such a version below the floor drops the
		// older ones, and until the remote time catches up the key reads as
		// absent — preloaded keys and markers vanished for about 2 ms after
		// every pass, which the output checks (rightly) reject.
		gcInterval: -1,
		// mix[0] is the writer's transaction, mix[1] the reader's; both
		// also touch the two marker keys.
		mix: []mixEntry{{share: 1, writes: 2}, {share: 1, reads: 6}},
	},
	{
		name: "bigdata_sst",
		why:  "sst backend holding 16x its memtable, flat key choice: point reads and scans land in run files, the larger-than-cache case for the engine commit_durable writes to",
		dcs:  1, partitions: 2, backend: "sst", fsync: "interval",
		keysPerPartition: 65536, valueBytes: 1024, theta: 0.5,
		sessionsPerProc: 1,
		mix: []mixEntry{
			{share: 0.90, reads: 8},
			{share: 0.05, scan: 64},
			{share: 0.05, writes: 2},
		},
	},
}

// versionGC says how often the workload's servers collect old versions.
func (s *spec) versionGC() string {
	switch {
	case s.gcInterval < 0:
		return "off"
	case s.gcInterval == 0:
		return "every " + core.DefaultGCInterval.String()
	}
	return "every " + s.gcInterval.String()
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// scaled returns a copy of s with its dataset divided by div (-quick).
func (s *spec) scaled(div int) *spec {
	c := *s
	c.keysPerPartition = max(s.keysPerPartition/div, 128)
	return &c
}

// rng is splitmix64: tiny, fast and fixed forever, unlike a library
// generator whose stream a toolchain upgrade may change.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipfian draws ranks in [0, n) by the Gray et al. method YCSB uses; rank 0
// is the most popular.
type zipfian struct {
	n                 int
	theta, alpha      float64
	zetan, eta, half  float64
	scramble, scrambN uint64
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(n int) float64 {
		var sum float64
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipfian{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n), half: math.Pow(0.5, theta)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	// Popular ranks are spread over the key order by a multiplier coprime
	// to n, so hot keys do not share run-file blocks.
	z.scrambN = uint64(n)
	for z.scramble = 2654435761 % z.scrambN; gcd(z.scramble, z.scrambN) != 1; z.scramble++ {
	}
	return z
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// draw returns a key index in [0, n).
func (z *zipfian) draw(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.scrambN {
			rank = z.scrambN - 1
		}
	}
	return int(rank * z.scramble % z.scrambN)
}

// keyspace is the fixed key population of a workload. Key id p*K+i is the
// i-th key owned by partition p under the production sharding function, so
// the generator, the coordinators and the checks agree on placement.
type keyspace struct {
	keys    []string
	markers [2]string // geo_visibility only, on different partitions
}

func newKeyspace(s *spec) *keyspace {
	ks := &keyspace{keys: make([]string, s.partitions*s.keysPerPartition)}
	filled := make([]int, s.partitions)
	for i, need := 0, len(ks.keys); need > 0; i++ {
		k := fmt.Sprintf("user%08d", i)
		p := sharding.PartitionOf(k, s.partitions)
		if filled[p] == s.keysPerPartition {
			continue
		}
		ks.keys[p*s.keysPerPartition+filled[p]] = k
		filled[p]++
		need--
	}
	if s.geo {
		for i, found := 0, 0; found < 2; i++ {
			k := fmt.Sprintf("marker%04d", i)
			if sharding.PartitionOf(k, s.partitions) == found {
				ks.markers[found] = k
				found++
			}
		}
	}
	return ks
}

// op is one generated transaction. Key ids index keyspace.keys; the session
// derives the values it writes from its own id and sequence (see value).
type op struct {
	reads     []int32
	writes    []int32
	scanStart int32 // key id the scan starts at, -1 when the op has no scan
	scanLimit int
}

// generator produces the operation stream of one session.
type generator struct {
	s     *spec
	mix   []mixEntry
	r     rng
	zipf  *zipfian
	seen  map[int32]struct{}
	first int // partition of a transaction's first key
}

// newGenerator seeds a session's stream from the run seed, the workload
// name and the session index, so session i issues the same operations
// whatever the number of sessions or processors.
//
// Session i is pinned to coordinator i mod N (see execute), and its keys
// alternate over the partitions starting with the writes on the partition
// after the coordinator's. So a single write always goes to a remote cohort
// and two or more writes always involve both: which cohorts a commit needs is
// fixed per workload instead of a coin toss that would put the median commit
// on the boundary between a local and a remote prepare.
func newGenerator(s *spec, mix []mixEntry, seed int64, session int) *generator {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", s.name, seed, session)
	return &generator{s: s, mix: mix, r: rng{s: h.Sum64()}, first: (session + 1) % s.partitions,
		zipf: newZipfian(s.keysPerPartition, s.theta), seen: make(map[int32]struct{})}
}

func (g *generator) next() op {
	m := g.mix[0]
	if len(g.mix) > 1 {
		u, acc := g.r.float(), 0.0
		for _, e := range g.mix {
			m = e
			if acc += e.share; u < acc {
				break
			}
		}
	}
	o := op{scanStart: -1}
	if m.scan > 0 {
		o.scanStart = int32(g.r.intn(g.s.partitions * g.s.keysPerPartition))
		o.scanLimit = m.scan
		return o
	}
	// Keys are distinct within the transaction.
	clear(g.seen)
	pick := func(j int) int32 {
		p := (g.first + j) % g.s.partitions
		i := g.zipf.draw(&g.r)
		for {
			id := int32(p*g.s.keysPerPartition + i)
			if _, dup := g.seen[id]; !dup {
				g.seen[id] = struct{}{}
				return id
			}
			i = (i + 1) % g.s.keysPerPartition
		}
	}
	o.writes = make([]int32, m.writes)
	for j := range o.writes {
		o.writes[j] = pick(j)
	}
	o.reads = make([]int32, m.reads)
	for j := range o.reads {
		o.reads[j] = pick(m.writes + j)
	}
	return o
}

// Values carry who wrote them and when in that writer's own order, which is
// what the output checks read back: bytes 0-1 are the session id, bytes 2-7
// its transaction sequence, and the rest a filler fixed by those eight.
const preloadSession = 0xffff

func value(buf []byte, session int, seq uint64) []byte {
	binary.BigEndian.PutUint64(buf, uint64(session)<<48|seq&(1<<48-1))
	for i := 8; i < len(buf); i++ {
		buf[i] = buf[i&7] + byte(i)
	}
	return buf
}

// parseValue returns the writer and sequence of a value of the expected
// size, or ok=false when the size or the filler is wrong.
func parseValue(v []byte, size int) (session int, seq uint64, ok bool) {
	if len(v) != size || size < 8 {
		return 0, 0, false
	}
	tag := binary.BigEndian.Uint64(v)
	// The filler is checked at a few fixed offsets: enough to catch a
	// truncated or shifted value without touching every byte of every read.
	for _, i := range [...]int{min(8, size-1), size / 2, size - 1} {
		if i >= 8 && v[i] != v[i&7]+byte(i) {
			return 0, 0, false
		}
	}
	return int(tag >> 48), tag & (1<<48 - 1), true
}

// pinned is streamHash(spec, seed 1, 10 000 operations). A change here means
// the benchmark's inputs changed, and every number measured before is void.
var pinned = map[string]uint64{
	"read_mem":       0xe6c48d63d4c3c296,
	"commit_durable": 0x68b9e07081b1a25,
	"geo_visibility": 0xb2f0dbf2b1b6bffa,
	"bigdata_sst":    0x6512d53d1875719e,
}

// checkPinned fails when the generator no longer produces the pinned
// streams. The harness runs it before every measurement, because the tests
// of this module are not part of the repository's `go test ./...`.
func checkPinned() error {
	for _, s := range specs {
		if got := streamHash(s, 1, 10000); got != pinned[s.name] {
			return fmt.Errorf("%s: seed 1 gives operation stream %#x, pinned is %#x: the generator changed", s.name, got, pinned[s.name])
		}
	}
	return nil
}

// streamHash fingerprints the first n operations session 0 would issue —
// for geo_visibility half from the writer's stream and half from the
// reader's.
func streamHash(s *spec, seed int64, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.BigEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	streams := []*generator{newGenerator(s, s.mix, seed, 0)}
	if s.geo {
		streams = []*generator{newGenerator(s, s.mix[:1], seed, 0), newGenerator(s, s.mix[1:], seed, 1)}
	}
	for _, g := range streams {
		for i := 0; i < n/len(streams); i++ {
			o := g.next()
			put(int64(len(o.reads)))
			for _, k := range o.reads {
				put(int64(k))
			}
			put(int64(len(o.writes)))
			for _, k := range o.writes {
				put(int64(k))
			}
			put(int64(o.scanStart))
			put(int64(o.scanLimit))
		}
	}
	return h.Sum64()
}
