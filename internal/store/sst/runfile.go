// Run file format (v3): the on-disk layout behind the sparse block index.
//
//	[ data region: logrec version frames, grouped into blocks ]
//	[ footer: one logrec frame describing the blocks             ]
//	[ trailer: 4-byte LE footer-frame length + 8-byte magic      ]
//
// The data region holds one length-prefixed, CRC32-checksummed record per
// version, keys ascending, each key's chain contiguous and newest first
// (descending last-writer-wins order) — cut into blocks of roughly
// BlockBytes (4 KiB by default) at key boundaries, so one key's whole
// chain always lives in exactly one block. A point read walks and
// checksums its block from the first record to the key's chain, then goes
// down the chain newest first and stops at the first version it can
// decide on: the first visible one, the first one no fresher than the
// best version already found, or the last one the GC overlay leaves live.
// A read therefore pays for the records before the key in its block plus
// the versions newer than its snapshot, not for the chain's length: a
// 4 KiB block holds three 1 KiB records, and a probe of a single-version
// key checks two on average (see TestPointReadRecordsChecked). The record
// after a chain is recognised by its key field and is not walked. Format
// 2, which stored chains oldest first, is refused at open. The footer
// carries one fence (first key, length) per block plus the version/key
// counts and the run's Bloom filter; it is itself a logrec frame, so it
// tears and checksums by the same rules as every other record in the data
// directory. Only the fences and the filter stay resident. A sealed file
// is mapped once, read-only, and read in place: a point read
// binary-searches the fence table, slices one block out of the mapping
// and walks its frames; startup touches the trailer and footer pages
// only. Every access to the mapping follows the package comment's two
// rules — a file reference across the whole use of the bytes, and
// readMapped around every touch. A file without the trailer magic is
// corrupt: run files are only ever renamed into place complete.
package sst

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/store/fsutil"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

const (
	runMagic       = "wrenSST2"
	runTrailerSize = 4 + 8 // LE32 footer length + magic (untyped: mixes with int64 offsets)
	runFormat      = 3     // chains newest first; 2 stored them oldest first
)

var _ = [1]struct{}{}[runTrailerSize-4-len(runMagic)] // magic length must match the trailer layout

// fence locates one block: the first key it holds and its byte range in
// the data region. Fence keys are the only per-key state a run keeps in
// memory.
type fence struct {
	firstKey string
	off      int64
	length   int
}

// runFile is a run's refcounted read-only mapping of its sealed file (the
// descriptor is closed as soon as the file is mapped). Runs are retired
// while readers may still be walking them (compaction publishes the
// replacement tables first, then releases its table reference), so the
// mapping goes only when the last reader lets go — never under a reader,
// which would fault on the unmapped pages. Cloned run structs (GC overlay
// publication) share one runFile.
type runFile struct {
	data []byte
	refs atomic.Int32
}

// acquire takes a read reference; it fails only when the run was already
// retired and fully released, in which case the caller reloads the
// current tables (which no longer list the run) and retries.
func (rf *runFile) acquire() bool {
	for {
		n := rf.refs.Load()
		if n <= 0 {
			return false
		}
		if rf.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (rf *runFile) release() {
	if rf.refs.Add(-1) == 0 {
		_ = fsutil.Unmap(rf.data) // fails only on a range MapFile did not return
	}
}

// readMapped runs fn, which touches mapped run bytes, with a memory fault
// turned into an error. A page the kernel cannot supply — an I/O error
// under it, or a file truncated behind the engine — raises SIGBUS, which
// debug.SetPanicOnFault turns into a panic carrying the faulting address;
// that panic is recovered here and reported like a failed read. Any other
// panic is re-raised, and the goroutine's previous setting is restored.
func readMapped(fn func()) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if p := recover(); p != nil {
			fault, ok := p.(interface{ Addr() uintptr })
			if !ok {
				panic(p)
			}
			err = fmt.Errorf("fault at %#x", fault.Addr())
		}
	}()
	fn()
	return nil
}

// runWriter streams one sorted run to disk: chains arrive in ascending
// key order, blocks are cut at key boundaries near blockBytes (a chain
// larger than a block gets one oversized block rather than splitting),
// and finish appends the footer and trailer, fsyncs, and renames the
// temp file into place.
type runWriter struct {
	fs         fsutil.FS
	path, tmp  string
	f          fsutil.File
	w          *bufio.Writer
	enc        *wire.Encoder
	blockBytes int

	fences     []fence
	filter     bloomFilter
	off        int64 // data bytes written
	blockStart int64
	blockFirst string
	blockLen   int
	versions   int
	keys       int
	err        error
}

// newRunWriter opens the temp file. expectedKeys only sizes the Bloom
// filter, so an upper bound (compaction cannot know the merged distinct
// count in advance) is fine — oversizing just lowers the FP rate.
func newRunWriter(fsys fsutil.FS, path string, blockBytes, expectedKeys int) (*runWriter, error) {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sst: write run: %w", err)
	}
	return &runWriter{
		fs: fsys, path: path, tmp: tmp, f: f,
		w:          bufio.NewWriterSize(f, 1<<16),
		enc:        wire.NewEncoder(),
		blockBytes: blockBytes,
		filter:     newBloomFilter(expectedKeys),
	}, nil
}

// addChain appends one key's whole version chain, which arrives in
// ascending last-writer-wins order and is written newest first.
func (w *runWriter) addChain(key string, chain []*store.Version) {
	if w.err != nil || len(chain) == 0 {
		return
	}
	w.enc.Reset()
	for i := len(chain) - 1; i >= 0; i-- {
		logrec.Append(w.enc, key, chain[i])
	}
	b := w.enc.Bytes()
	if w.blockLen > 0 && w.blockLen+len(b) > w.blockBytes {
		w.fences = append(w.fences, fence{firstKey: w.blockFirst, off: w.blockStart, length: w.blockLen})
		w.blockStart = w.off
		w.blockLen = 0
	}
	if w.blockLen == 0 {
		w.blockFirst = key
	}
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return
	}
	w.off += int64(len(b))
	w.blockLen += len(b)
	w.filter.add(key)
	w.versions += len(chain)
	w.keys++
}

// finish seals the file: last fence, footer frame, trailer, flush, fsync,
// rename. On any error the temp file is removed.
func (w *runWriter) finish() (fileSize, dataSize int64, err error) {
	if w.err == nil && w.blockLen > 0 {
		w.fences = append(w.fences, fence{firstKey: w.blockFirst, off: w.blockStart, length: w.blockLen})
		w.blockLen = 0
	}
	dataSize = w.off
	if w.err == nil {
		w.enc.Reset()
		logrec.AppendFrame(w.enc, func(enc *wire.Encoder) {
			enc.Byte(runFormat)
			enc.Uvarint(uint64(len(w.fences)))
			for _, fe := range w.fences {
				enc.Uvarint(uint64(fe.length))
				enc.String(fe.firstKey)
			}
			enc.Uvarint(uint64(w.versions))
			enc.Uvarint(uint64(w.keys))
			enc.Byte(byte(w.filter.hashes))
			enc.BytesField(w.filter.bits)
		})
		footer := w.enc.Bytes()
		var trailer [runTrailerSize]byte
		binary.LittleEndian.PutUint32(trailer[:4], uint32(len(footer)))
		copy(trailer[4:], runMagic)
		if _, werr := w.w.Write(footer); werr != nil {
			w.err = werr
		} else if _, werr := w.w.Write(trailer[:]); werr != nil {
			w.err = werr
		}
		fileSize = dataSize + int64(len(footer)) + runTrailerSize
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.err == nil {
		w.err = w.f.Sync()
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err == nil {
		w.err = w.fs.Rename(w.tmp, w.path)
	}
	if w.err != nil {
		_ = w.fs.Remove(w.tmp)
		return 0, 0, fmt.Errorf("sst: write run %s: %w", w.path, w.err)
	}
	return fileSize, dataSize, nil
}

// abort discards the half-written temp file.
func (w *runWriter) abort() {
	_ = w.f.Close()
	_ = w.fs.Remove(w.tmp)
}

// intoRun maps the sealed file and assembles the resident run state the
// writer already accumulated (fences, filter, counts).
func (w *runWriter) intoRun(minGen, maxGen uint64, fileSize, dataSize int64) (*run, error) {
	data, err := fsutil.MapFile(w.path)
	if err != nil {
		return nil, fmt.Errorf("sst: open run %s: %w", w.path, err)
	}
	if int64(len(data)) != fileSize {
		_ = fsutil.Unmap(data)
		return nil, fmt.Errorf("sst: run %s maps %d bytes, %d were written", w.path, len(data), fileSize)
	}
	r := &run{
		file: &runFile{data: data}, path: w.path,
		minGen: minGen, maxGen: maxGen,
		fileSize: fileSize, dataSize: dataSize,
		fences: w.fences, filter: w.filter,
		versions: w.versions, keyCount: w.keys,
	}
	r.file.refs.Store(1)
	return r, nil
}

// loadRun maps a run file and loads its resident index — fences, Bloom
// filter and counts from the footer. Run files are only ever renamed into
// place complete, so any structural violation (a missing trailer included)
// is real corruption and fails the load rather than silently dropping
// durable versions.
func loadRun(path string, minGen, maxGen uint64) (*run, error) {
	data, err := fsutil.MapFile(path)
	if err != nil {
		return nil, fmt.Errorf("sst: open run %s: %w", path, err)
	}
	r := &run{file: &runFile{data: data}, path: path, minGen: minGen, maxGen: maxGen, fileSize: int64(len(data))}
	r.file.refs.Store(1)
	if ferr := readMapped(func() { err = r.loadFooter() }); ferr != nil {
		err = fmt.Errorf("sst: read run footer %s: %w", path, ferr)
	}
	if err != nil {
		r.file.release()
		return nil, err
	}
	return r, nil
}

// loadFooter parses the trailer and footer only; everything it keeps is
// copied out of the mapping. A file too short to hold the trailer fails
// the same check as one whose last bytes are not the magic. Caller runs it
// under readMapped.
func (r *run) loadFooter() error {
	data := r.file.data
	var trailer []byte
	if r.fileSize >= runTrailerSize {
		trailer = data[r.fileSize-runTrailerSize:]
	}
	if len(trailer) == 0 || string(trailer[4:]) != runMagic {
		return fmt.Errorf("sst: corrupt run file %s: no trailer magic (truncated, or not a run file)", r.path)
	}
	flen := int64(binary.LittleEndian.Uint32(trailer))
	if flen <= 0 || flen+runTrailerSize > r.fileSize {
		return fmt.Errorf("sst: corrupt run footer length in %s", r.path)
	}
	footOff := r.fileSize - runTrailerSize - flen
	footer := data[footOff : footOff+flen]
	var perr error
	good := logrec.ScanFrames(footer, func(payload []byte) error {
		d := wire.NewDecoder(payload)
		if v := d.Byte(); v != runFormat {
			perr = fmt.Errorf("sst: run %s is in run format %d: the engine reads only format %d "+
				"(chains newest first), and there is no migration", r.path, v, runFormat)
			return perr
		}
		nBlocks := int(d.Uvarint())
		var off int64
		for i := 0; i < nBlocks && d.Err() == nil; i++ {
			length := int(d.Uvarint())
			r.fences = append(r.fences, fence{firstKey: d.String(), off: off, length: length})
			off += int64(length)
		}
		r.versions = int(d.Uvarint())
		r.keyCount = int(d.Uvarint())
		hashes := int(d.Byte())
		bits := d.BytesField()
		if err := d.Err(); err != nil {
			perr = fmt.Errorf("sst: corrupt run footer in %s: %w", r.path, err)
			return perr
		}
		if len(bits) > 0 {
			r.filter = bloomFilter{bits: append([]byte(nil), bits...), hashes: hashes}
		}
		r.dataSize = off
		return nil
	})
	if perr != nil {
		return perr
	}
	if good != int(flen) {
		return fmt.Errorf("sst: corrupt run footer in %s (%d of %d bytes intact)", r.path, good, flen)
	}
	if r.dataSize != footOff {
		return fmt.Errorf("sst: run %s blocks cover %d bytes, data region is %d", r.path, r.dataSize, footOff)
	}
	return nil
}

// fenceFor returns the index of the block that may hold key: the last
// fence with firstKey <= key, or -1 when key sorts before the whole run.
// Written as a plain loop (not sort.Search) so the read hot path stays
// closure- and allocation-free.
func (r *run) fenceFor(key string) int {
	lo, hi := 0, len(r.fences)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.fences[mid].firstKey <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// block returns block bi of r: a slice of the mapping, valid only while
// the caller holds a file reference and touched only under readMapped.
func (r *run) block(bi int) []byte {
	fe := r.fences[bi]
	return r.file.data[fe.off : fe.off+int64(fe.length)]
}

// chainIn is the one walk over a block's records that point reads and
// VersionsOf share. It steps through blk from its first record to key's
// chain and down the chain, newest first, verifying the frame and CRC of
// every record it walks, and hands each chain record's verified payload to
// fn, which returns false to stop. The walk also stops after limit chain
// records (limit < 0: no bound), at a record sorting after key when the
// block holds no chain of key, and at the chain's end: the record after
// the chain is recognised by its key field alone and is not walked.
// checked counts the records walked. A record that does not frame or
// checksum ends the walk: bad is its offset in blk (-1 when the walk ended
// cleanly).
func chainIn(blk []byte, key string, limit int, fn func(payload []byte) bool) (checked, bad int) {
	n := 0 // chain records walked
	for off := 0; off+logrec.HeaderSize <= len(blk) && n != limit; {
		end := off + logrec.HeaderSize + int(binary.LittleEndian.Uint32(blk[off:]))
		if end > len(blk) {
			return checked + 1, off
		}
		payload := blk[off+logrec.HeaderSize : end]
		k := wire.NewDecoder(payload).BytesField()
		if n > 0 && string(k) != key {
			break // past the chain
		}
		checked++
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(blk[off+4:]) {
			return checked, off
		}
		off = end
		if n == 0 && string(k) != key {
			if string(k) > key {
				break // keys ascend: the block holds no chain of key
			}
			continue
		}
		n++
		if !fn(payload) {
			break
		}
	}
	return checked, -1
}

// walkChain runs chainIn over block bi of r while the bytes are still
// mapped: one file reference spans the walk and fn, and both run under
// readMapped. A fault or a corrupt record is recorded as a read error; fn
// then has seen at most the verified records before it, and nothing more
// after a fault. The result is false only when the run was retired
// concurrently — the caller reloads the tables and retries.
func (e *Engine) walkChain(r *run, bi int, key string, limit int, fn func(payload []byte) bool) bool {
	if !r.file.acquire() {
		return false
	}
	defer r.file.release()
	e.blockReads.Add(1)
	bad, checked := -1, 0
	err := readMapped(func() { checked, bad = chainIn(r.block(bi), key, limit, fn) })
	e.recordsChecked.Add(uint64(checked))
	switch off := r.fences[bi].off; {
	case err != nil:
		e.recordErr(fmt.Errorf("sst: read run block %s@%d: %w", r.path, off, err))
	case bad >= 0:
		e.recordErr(fmt.Errorf("sst: corrupt record in run block %s@%d", r.path, off+int64(bad)))
	}
	return true
}

// probeScratch is the pooled per-probe state: one reusable Version (handed
// to visibility predicates) and one reusable dependency-vector buffer.
// Reads borrow it once per batch, so the steady-state point-read path
// allocates nothing.
type probeScratch struct {
	dv  []hlc.Timestamp
	ver store.Version
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// probeRun merges run r into the running best version for key: if the
// freshest version of key in r that satisfies visible strictly beats cur
// in last-writer-wins order, it is materialized (one allocation, only on
// the winning path) and returned; otherwise cur comes back untouched. The
// second result is false only when the run was retired concurrently — the
// caller reloads the tables and retries.
//
// The walk goes down the chain newest first, decoding each record into the
// pooled scratch in place in the mapping, and stops at the first record it
// can decide on: one cur is not older than (nothing further down can win),
// or the first visible one — the freshest visible, which is materialized.
// It never goes past the versions the GC overlay leaves live. A Bloom miss
// answers from memory alone. The visibility predicate sees sc.ver, whose
// Value aliases the mapping: it must not retain it; logrec.Decode copies
// everything it returns.
func (e *Engine) probeRun(r *run, key string, visible store.VisibleFunc, cur *store.Version, sc *probeScratch) (*store.Version, bool) {
	if !r.filter.mayContain(key) {
		e.bloomSkips.Add(1)
		return cur, true
	}
	bi := r.fenceFor(key)
	limit, cut := r.live[key]
	if bi < 0 || (cut && limit == 0) {
		return cur, true // sorts before the run (a filter false positive), or GC cut the whole chain
	}
	if !cut {
		limit = -1
	}
	v := cur
	ok := e.walkChain(r, bi, key, limit, func(payload []byte) bool {
		d := wire.NewDecoder(payload)
		d.BytesField() // the key, matched by chainIn
		tomb := d.Bool()
		val := d.BytesField()
		ver := &sc.ver
		ver.UT, ver.RDT = d.Timestamp(), d.Timestamp()
		ver.TxID, ver.SrcDC = d.Uvarint(), d.Byte()
		sc.dv = sc.dv[:0]
		for i := int(d.Uvarint()); i > 0; i-- {
			sc.dv = append(sc.dv, d.Timestamp())
		}
		if d.Err() != nil {
			e.recordErr(fmt.Errorf("sst: corrupt record in run %s: %w", r.path, d.Err()))
			return false
		}
		ver.DV, ver.Value = sc.dv, val
		if tomb {
			ver.Value = nil
		}
		if cur != nil && !cur.Less(ver) {
			return false // the resident version is at least as fresh as the rest of the chain
		}
		if !visible(ver) {
			return true
		}
		if _, w, err := logrec.Decode(payload); err != nil {
			e.recordErr(fmt.Errorf("sst: corrupt record in run %s: %w", r.path, err))
		} else {
			v = w
		}
		return false
	})
	sc.ver.Value = nil // drop the alias into the mapping
	return v, ok
}

// countKey returns how many live versions of key run r holds: the GC
// overlay's count when it has one, else the file chain's length, walking
// at most one block with every walked record checksummed. The second
// result is false only when the run was retired concurrently.
func (e *Engine) countKey(r *run, key string) (int, bool) {
	if n, ok := r.live[key]; ok {
		return n, true
	}
	if !r.filter.mayContain(key) {
		return 0, true
	}
	bi := r.fenceFor(key)
	if bi < 0 {
		return 0, true
	}
	n := 0
	ok := e.walkChain(r, bi, key, -1, func([]byte) bool { n++; return true })
	return n, ok
}

// runIterator streams a run's records in key order, one mapped block at a
// time, yielding each key's full file chain in ascending last-writer-wins
// order (the file holds it newest first; the GC overlay is the caller's to
// apply — GC accounting needs the full chain, scans need the live one).
// Every record it yields is checksummed.
// The iterator holds a file reference from newRunIterator until close, and
// every walk of the mapping runs under readMapped (see walk); what it
// yields is decoded copies, valid after close. It only moves forward: next
// steps to the following key, advanceTo jumps through the fence index to
// the block of a later one.
type runIterator struct {
	e   *Engine
	r   *run
	bi  int    // next block to enter
	blk []byte // unparsed remainder of the current block, in the mapping

	key   string
	chain []*store.Version // non-empty exactly while positioned on key

	pkey string // first record of the next key, parsed past the boundary
	pv   *store.Version
	pok  bool

	err error
}

// newRunIterator acquires the run's file. It returns nil only when the
// run was already retired: impossible under flushMu, which serializes
// retirement; a caller without it reloads the tables and retries.
func newRunIterator(e *Engine, r *run) *runIterator {
	if !r.file.acquire() {
		return nil
	}
	return &runIterator{e: e, r: r}
}

func (it *runIterator) close() { it.r.file.release() }

// walk runs fn, which reads the mapping, under readMapped: a fault fails
// the iterator the way a corrupt record does.
func (it *runIterator) walk(fn func()) {
	if err := readMapped(fn); err != nil {
		it.chain = it.chain[:0]
		it.fail(fmt.Errorf("sst: read run %s: %w", it.r.path, err))
	}
}

// advanceTo positions the iterator on the first key >= key at or after
// its current position and reports whether there is one. When the fence
// index places key in a block not entered yet, everything in between is
// skipped untouched: the cost is the target block (plus the next one when
// key's chain ends its block — next parses one record past the boundary),
// not the distance travelled.
func (it *runIterator) advanceTo(key string) bool {
	if len(it.chain) > 0 && it.key >= key {
		return true
	}
	if bi := it.r.fenceFor(key); bi >= it.bi {
		// The rest of the current block and the lookahead record all sort
		// before fences[bi].firstKey <= key.
		it.bi, it.blk, it.pok = bi, nil, false
	}
	// Walk up to key inside the block without materializing what is
	// skipped: only the record's leading key field is looked at.
	if it.pok && it.pkey < key {
		it.pok = false
	}
	it.walk(func() {
		for !it.pok {
			payload, ok := it.frame()
			if !ok || string(wire.NewDecoder(payload).BytesField()) >= key {
				break
			}
			it.blk = it.blk[logrec.HeaderSize+len(payload):]
		}
	})
	return it.next()
}

// next advances to the next key, filling it.key and it.chain (reused
// between calls — callers must consume before advancing). It returns
// false at the end of the run, on a corrupt record or on a fault (both
// surfaced via it.err and the engine health signal).
func (it *runIterator) next() bool {
	ok := false
	it.walk(func() { ok = it.step() })
	return ok
}

func (it *runIterator) step() bool {
	it.chain = it.chain[:0]
	if it.err != nil {
		return false
	}
	if it.pok {
		it.key = it.pkey
		it.chain = append(it.chain, it.pv)
		it.pok = false
	} else {
		k, v, ok := it.record()
		if !ok {
			return false
		}
		it.key = k
		it.chain = append(it.chain, v)
	}
	for {
		k, v, ok := it.record()
		if ok && k == it.key {
			it.chain = append(it.chain, v)
			continue
		}
		if ok {
			it.pkey, it.pv, it.pok = k, v, true
		}
		slices.Reverse(it.chain) // the file holds chains newest first
		return true
	}
}

// frame returns the payload of the next record without consuming it,
// entering the next block when the current one is exhausted.
func (it *runIterator) frame() ([]byte, bool) {
	if it.err != nil {
		return nil, false
	}
	for len(it.blk) == 0 {
		if it.bi >= len(it.r.fences) {
			return nil, false
		}
		it.blk = it.r.block(it.bi)
		it.bi++
		it.e.blockReads.Add(1)
	}
	if len(it.blk) < logrec.HeaderSize {
		it.fail(fmt.Errorf("sst: torn record in run %s", it.r.path))
		return nil, false
	}
	plen := int(binary.LittleEndian.Uint32(it.blk[:4]))
	if logrec.HeaderSize+plen > len(it.blk) {
		it.fail(fmt.Errorf("sst: torn record in run %s", it.r.path))
		return nil, false
	}
	payload := it.blk[logrec.HeaderSize : logrec.HeaderSize+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(it.blk[4:8]) {
		it.fail(fmt.Errorf("sst: corrupt record in run %s", it.r.path))
		return nil, false
	}
	return payload, true
}

// record parses and consumes one version record.
func (it *runIterator) record() (string, *store.Version, bool) {
	payload, ok := it.frame()
	if !ok {
		return "", nil, false
	}
	key, v, err := logrec.Decode(payload)
	if err != nil {
		it.fail(fmt.Errorf("sst: corrupt record in run %s: %w", it.r.path, err))
		return "", nil, false
	}
	it.blk = it.blk[logrec.HeaderSize+len(payload):]
	return key, v, true
}

func (it *runIterator) fail(err error) {
	if it.err == nil {
		it.err = err
		it.e.recordErr(err)
	}
}
