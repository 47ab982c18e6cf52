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
	"os"
	"runtime/debug"
	"sync/atomic"

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

// run is one immutable sorted run: a durable file plus the sparse
// resident index serving lock-free reads — fence keys (one per block), a
// Bloom filter over its distinct keys, and counters. It covers a
// contiguous range of WAL generations and sits in a size level. Nothing
// here is mutated after construction; GC publishes replacement run
// structs wholesale (sharing the same refcounted file).
//
// live is the GC overlay: for each pruned key, how many of its file
// versions are still live — the newest ones, which the file stores first,
// so a probe stops after that many records and the cut versions are the
// chain's tail. Cutting the oldest versions is sound because GC only ever
// removes versions older than the surviving base. Readers of ascending
// chains (runIterator) convert the count into a leading cut with cutOf. A
// key whose whole chain is cut (live 0) stays in the FILE until compaction
// rewrites it — the file key set is exactly what recovery would reload,
// the set GC must consult before letting a tombstone leave the memtable.
type run struct {
	file           *runFile
	path           string
	minGen, maxGen uint64
	level          int
	fileSize       int64 // whole file, footer included
	dataSize       int64 // data region only (sum of block lengths)

	fences   []fence
	filter   bloomFilter
	versions int // version records in the FILE
	keyCount int // distinct keys in the FILE

	live     map[string]int // pruned key -> newest file versions still live
	cutTotal int            // garbage versions in the file (chain lengths minus live)
	deadKeys int            // keys whose whole chain is cut
}

// liveVersions is the number of versions reads can still observe.
func (r *run) liveVersions() int { return r.versions - r.cutTotal }

// cutOf converts a GC overlay's live count for key into how many of the n
// versions of its ascending file chain, oldest first, are dead. A chain a
// corrupt record cut short holds only its newest n versions, which may all
// be live: the cut is never negative.
func cutOf(live map[string]int, key string, n int) int {
	if l, ok := live[key]; ok {
		return max(n-l, 0)
	}
	return 0
}

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
func (w *runWriter) finish() (fileSize int64, err error) {
	if w.err == nil && w.blockLen > 0 {
		w.fences = append(w.fences, fence{firstKey: w.blockFirst, off: w.blockStart, length: w.blockLen})
		w.blockLen = 0
	}
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
		fileSize = w.off + int64(len(footer)) + runTrailerSize
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
		return 0, fmt.Errorf("sst: write run %s: %w", w.path, w.err)
	}
	return fileSize, nil
}

// abort discards the half-written temp file.
func (w *runWriter) abort() {
	_ = w.f.Close()
	_ = w.fs.Remove(w.tmp)
}

// intoRun maps the sealed file of fileSize bytes and assembles the
// resident run state the writer already accumulated (fences, filter,
// counts).
func (w *runWriter) intoRun(minGen, maxGen uint64, fileSize int64) (*run, error) {
	r, err := mapRun(w.path, minGen, maxGen)
	if err != nil {
		return nil, err
	}
	if r.fileSize != fileSize {
		r.file.release()
		return nil, fmt.Errorf("sst: run %s maps %d bytes, %d were written", w.path, r.fileSize, fileSize)
	}
	r.dataSize, r.fences, r.filter, r.versions, r.keyCount = w.off, w.fences, w.filter, w.versions, w.keys
	return r, nil
}

// loadRun maps a run file and loads its resident index — fences, Bloom
// filter and counts from the footer. Run files are only ever renamed into
// place complete, so any structural violation (a missing trailer included)
// is real corruption and fails the load rather than silently dropping
// durable versions.
func loadRun(path string, minGen, maxGen uint64) (*run, error) {
	r, err := mapRun(path, minGen, maxGen)
	if err != nil {
		return nil, err
	}
	if ferr := readMapped(func() { err = r.loadFooter() }); ferr != nil {
		err = fmt.Errorf("sst: read run footer %s: %w", path, ferr)
	}
	if err != nil {
		r.file.release()
		return nil, err
	}
	return r, nil
}

// mapRun maps a sealed run file: a run holding one (the table's) reference
// to its mapping and nothing of its index yet.
func mapRun(path string, minGen, maxGen uint64) (*run, error) {
	data, err := fsutil.MapFile(path)
	if err != nil {
		return nil, fmt.Errorf("sst: open run %s: %w", path, err)
	}
	r := &run{file: &runFile{data: data}, path: path, minGen: minGen, maxGen: maxGen, fileSize: int64(len(data))}
	r.file.refs.Store(1)
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
