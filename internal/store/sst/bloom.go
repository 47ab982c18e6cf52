package sst

// bloomFilter is a classic Bloom filter over the distinct keys of one
// sorted run, probed before any disk access so negative point lookups
// skip the run entirely. The zero value (nil bits) is the disabled
// filter: mayContain always answers true, which is the conservative
// direction everywhere a filter is consulted — a false "maybe" costs one
// block read (or keeps one tombstone alive a little longer), a false "no"
// would lose durable data.
//
// Double hashing (Kirsch–Mitzenmacher) derives all probe positions from
// one 64-bit FNV-1a hash, so adding and probing allocate nothing.
type bloomFilter struct {
	bits   []byte
	hashes int
}

// bloomBitsPerKey sizes each run's Bloom filter (≈0.8% false positives at
// 10 bits per key).
const bloomBitsPerKey = 10

// newBloomFilter sizes a filter for keys distinct keys at bloomBitsPerKey
// bits each.
func newBloomFilter(keys int) bloomFilter {
	if keys < 1 {
		keys = 1
	}
	mBits := keys * bloomBitsPerKey
	if mBits < 64 {
		mBits = 64
	}
	// ln 2 ≈ 0.69 probes per bit-per-key minimizes the false-positive rate.
	return bloomFilter{bits: make([]byte, (mBits+7)/8), hashes: bloomBitsPerKey * 69 / 100}
}

func (b *bloomFilter) add(key string) {
	if b.bits == nil {
		return
	}
	h := bloomHash(key)
	delta := h>>33 | h<<31
	m := uint64(len(b.bits)) * 8
	for i := 0; i < b.hashes; i++ {
		bit := h % m
		b.bits[bit/8] |= 1 << (bit % 8)
		h += delta
	}
}

func (b *bloomFilter) mayContain(key string) bool {
	if b.bits == nil {
		return true
	}
	h := bloomHash(key)
	delta := h>>33 | h<<31
	m := uint64(len(b.bits)) * 8
	for i := 0; i < b.hashes; i++ {
		bit := h % m
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// sizeBytes is the filter's resident-memory footprint.
func (b *bloomFilter) sizeBytes() int64 { return int64(len(b.bits)) }

// bloomHash is 64-bit FNV-1a over the key without a []byte conversion,
// so probing allocates nothing (mirrors store.Fingerprint).
func bloomHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}
