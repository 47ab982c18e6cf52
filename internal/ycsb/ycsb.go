// Package ycsb generates the paper's benchmark workloads (§V-A): YCSB-style
// transactions with configurable read:write ratios (95:5, 90:10, 50:50),
// a fixed number of partitions involved per transaction, zipfian key
// selection within each partition (θ=0.99, YCSB's default), and small
// 8-byte items.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"

	"wren/internal/sharding"
)

// Mix describes a transaction composition. The paper's workloads run
// 19 reads + 1 write (95:5), 18 reads + 2 writes (90:10) and
// 10 reads + 10 writes (50:50).
type Mix struct {
	Reads  int
	Writes int
}

// Predefined mixes from the paper, plus a read-only mix used by the
// read-path mutex-profile gate (the paper's workloads always include
// writes; reads-only isolates the nonblocking read path itself).
var (
	Mix100 = Mix{Reads: 20, Writes: 0}
	Mix95  = Mix{Reads: 19, Writes: 1}
	Mix90  = Mix{Reads: 18, Writes: 2}
	Mix50  = Mix{Reads: 10, Writes: 10}
	AllMix = []Mix{Mix95, Mix90, Mix50}
)

// Name returns the conventional "r:w" label for the mix.
func (m Mix) Name() string {
	total := m.Reads + m.Writes
	if total == 0 {
		return "0:0"
	}
	return fmt.Sprintf("%d:%d", m.Reads*100/total, m.Writes*100/total)
}

// Config parameterizes a workload.
type Config struct {
	// Mix is the transaction composition.
	Mix Mix
	// PartitionsPerTx is p: how many distinct partitions a transaction
	// touches (the paper uses 2, 4 and 8).
	PartitionsPerTx int
	// NumPartitions is N, the partitions per DC.
	NumPartitions int
	// KeysPerPartition sizes each partition's keyspace.
	KeysPerPartition int
	// ValueSize is the item payload size; the paper uses 8 bytes.
	ValueSize int
	// ZipfTheta is the zipfian skew; the paper (and YCSB) use 0.99.
	ZipfTheta float64
}

func (c *Config) fillDefaults() {
	if c.PartitionsPerTx == 0 {
		c.PartitionsPerTx = 4
	}
	if c.KeysPerPartition == 0 {
		c.KeysPerPartition = 1000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 8
	}
	if c.ZipfTheta == 0 {
		c.ZipfTheta = 0.99
	}
	if c.Mix.Reads == 0 && c.Mix.Writes == 0 {
		c.Mix = Mix95
	}
}

// Workload holds the precomputed key pools and distribution state shared by
// all generator instances of one experiment.
type Workload struct {
	cfg Config
	// keys[p] lists the keys owned by partition p.
	keys [][]string
}

// NewWorkload builds the per-partition key pools. Keys are generated so
// they hash to their partition under the production sharding function,
// keeping the generator and the servers in agreement.
func NewWorkload(cfg Config) (*Workload, error) {
	cfg.fillDefaults()
	if cfg.NumPartitions <= 0 {
		return nil, fmt.Errorf("ycsb: NumPartitions must be positive")
	}
	if cfg.PartitionsPerTx > cfg.NumPartitions {
		return nil, fmt.Errorf("ycsb: PartitionsPerTx %d exceeds NumPartitions %d",
			cfg.PartitionsPerTx, cfg.NumPartitions)
	}
	if cfg.Mix.Reads+cfg.Mix.Writes <= 0 {
		return nil, fmt.Errorf("ycsb: empty transaction mix")
	}
	w := &Workload{cfg: cfg, keys: make([][]string, cfg.NumPartitions)}
	counts := make([]int, cfg.NumPartitions)
	needed := cfg.NumPartitions * cfg.KeysPerPartition
	for i := 0; needed > 0; i++ {
		k := fmt.Sprintf("user%08d", i)
		p := sharding.PartitionOf(k, cfg.NumPartitions)
		if counts[p] >= cfg.KeysPerPartition {
			continue
		}
		w.keys[p] = append(w.keys[p], k)
		counts[p]++
		needed--
	}
	return w, nil
}

// Config returns the workload configuration (with defaults filled).
func (w *Workload) Config() Config { return w.cfg }

// AllKeys returns every key in the workload, grouped by partition.
func (w *Workload) AllKeys() [][]string { return w.keys }

// Tx is one generated transaction: the keys to read and the writes to
// apply after the reads (the paper's transactions execute all reads in
// parallel, then all writes in parallel).
type Tx struct {
	ReadKeys []string
	Writes   []WriteOp
}

// WriteOp is a single key-value write.
type WriteOp struct {
	Key   string
	Value []byte
}

// Generator produces transactions for one client thread. Not safe for
// concurrent use: each thread owns one Generator.
type Generator struct {
	w    *Workload
	rng  *rand.Rand
	zipf *Zipfian
	perm []int
	seq  uint64
}

// NewGenerator returns a thread-local generator with its own random state.
func (w *Workload) NewGenerator(seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		w:    w,
		rng:  rng,
		zipf: NewZipfian(uint64(w.cfg.KeysPerPartition), w.cfg.ZipfTheta, rng),
		perm: make([]int, w.cfg.NumPartitions),
	}
}

// Next generates one transaction: p distinct partitions chosen uniformly,
// keys chosen zipfian within each partition, reads and writes distributed
// round-robin across the chosen partitions.
func (g *Generator) Next() Tx {
	cfg := g.w.cfg
	// Partial Fisher-Yates: choose the first PartitionsPerTx of a shuffle.
	for i := range g.perm {
		g.perm[i] = i
	}
	for i := 0; i < cfg.PartitionsPerTx; i++ {
		j := i + g.rng.Intn(len(g.perm)-i)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
	}
	parts := g.perm[:cfg.PartitionsPerTx]

	tx := Tx{
		ReadKeys: make([]string, 0, cfg.Mix.Reads),
		Writes:   make([]WriteOp, 0, cfg.Mix.Writes),
	}
	seen := make(map[string]struct{}, cfg.Mix.Reads+cfg.Mix.Writes)
	pick := func(p int) string {
		for {
			k := g.w.keys[p][g.zipf.Next()]
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				return k
			}
			// On collision fall back to a uniform draw so the loop always
			// terminates quickly even under extreme skew.
			k = g.w.keys[p][g.rng.Intn(len(g.w.keys[p]))]
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				return k
			}
		}
	}
	for i := 0; i < cfg.Mix.Reads; i++ {
		tx.ReadKeys = append(tx.ReadKeys, pick(parts[i%len(parts)]))
	}
	for i := 0; i < cfg.Mix.Writes; i++ {
		g.seq++
		tx.Writes = append(tx.Writes, WriteOp{
			Key:   pick(parts[i%len(parts)]),
			Value: g.value(),
		})
	}
	return tx
}

// value builds a payload of the configured size, varying content so that
// convergence checks can distinguish writers.
func (g *Generator) value() []byte {
	v := make([]byte, g.w.cfg.ValueSize)
	g.rng.Read(v)
	return v
}

// Zipfian draws integers in [0, n) with a zipfian distribution using the
// Gray et al. algorithm, as in YCSB's ZipfianGenerator.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	rng   *rand.Rand
}

// NewZipfian builds a zipfian source over [0, n) with skew theta.
func NewZipfian(n uint64, theta float64, rng *rand.Rand) *Zipfian {
	if n == 0 {
		n = 1
	}
	z := &Zipfian{n: n, theta: theta, rng: rng}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next zipfian value. Rank 0 is the most popular.
func (z *Zipfian) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
