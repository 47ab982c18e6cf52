package txlog

import (
	"bytes"
	"fmt"
	"os"

	"wren/internal/hlc"
	"wren/internal/store/logrec"
	"wren/internal/wire"
)

// Record kinds on disk. Values are part of the on-disk format; do not
// reorder.
const (
	recPrepare     = 1
	recCommit      = 2
	recCoordCommit = 3
	recCursor      = 4
	recAbort       = 5
	recResolved    = 6
	// recSeq persists the highest transaction sequence number the log has
	// seen, so a restarted server can seed its id generator ABOVE every
	// id of its previous lives. Without it, sequence numbers restart at 1
	// each life while the txlog keeps old ids alive across lives (resync
	// dedupe, re-driven outcomes), and a colliding fresh id could match a
	// previous life's transaction. Written on compaction, which is what
	// drops the old records the maximum would otherwise be rescanned from.
	recSeq = 7
)

// seqMask extracts the 40-bit sequence component of a transaction id
// (DC in the top byte, partition in the next two — see Server.newTxID).
const seqMask = (uint64(1) << 40) - 1

// The encoders below are the on-disk format, one per record kind: the live
// appends, compaction's rewrite and Repair's probe all frame a record
// through them, and applyRecord is their one decoder.

func encodePrepare(e *wire.Encoder, txID uint64, pt, rst hlc.Timestamp, sv []hlc.Timestamp, writes []wire.KV) {
	e.Byte(recPrepare)
	e.Uvarint(txID)
	e.Timestamp(pt)
	e.Timestamp(rst)
	e.Timestamps(sv)
	e.KVs(writes)
}

func encodeCommit(e *wire.Encoder, txID uint64, ct hlc.Timestamp) {
	e.Byte(recCommit)
	e.Uvarint(txID)
	e.Timestamp(ct)
}

func encodeCoordCommit(e *wire.Encoder, c *CoordTx) {
	e.Byte(recCoordCommit)
	e.Uvarint(c.TxID)
	e.Timestamp(c.CT)
	e.Uvarint(uint64(len(c.Cohorts)))
	for _, p := range c.Cohorts {
		e.Uvarint(uint64(p))
	}
}

func encodeCursor(e *wire.Encoder, dc int, upTo hlc.Timestamp) {
	e.Byte(recCursor)
	e.Byte(uint8(dc))
	e.Timestamp(upTo)
}

func encodeAbort(e *wire.Encoder, txID uint64) {
	e.Byte(recAbort)
	e.Uvarint(txID)
}

func encodeResolved(e *wire.Encoder, txID uint64) {
	e.Byte(recResolved)
	e.Uvarint(txID)
}

func encodeSeq(e *wire.Encoder, seq uint64) {
	e.Byte(recSeq)
	e.Uvarint(seq)
}

// recover replays the log into the lifecycle state and leaves the file
// open for appending at the end of the log, with nothing but zeros behind
// it (see the package comment): a tail that is not zeros is what a crash
// mid-append leaves — a torn record, and possibly whole ones behind it
// whose pages reached the disk first — and is cleared and synced here,
// before anything can be appended in front of it.
func (l *Log) recover() error {
	path := l.path()
	buf, err := l.fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("txlog: read %s: %w", path, err)
	}
	good := logrec.ScanFrames(buf, l.applyRecord)
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("txlog: open %s: %w", path, err)
	}
	if torn := bytes.TrimRight(buf[good:], "\x00"); len(torn) > 0 {
		err := writeZeros(f, int64(good), int64(len(torn)))
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("txlog: clear torn tail of %s: %w", path, err)
		}
		// Before Observe: no server to name yet, only the directory.
		l.event(nil, "txlog.torn_tail_cleared", "bytes", len(torn), "offset", good)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		_ = f.Close()
		return fmt.Errorf("txlog: seek %s: %w", path, err)
	}
	l.sh.F = f
	l.sh.Size = int64(good)
	l.filled = int64(len(buf))
	l.synced = int64(good) // everything read back is on disk by definition
	return nil
}

// applyRecord replays one scanned payload into the lifecycle state: each
// kind decodes its fields, and the transition applies only if they all
// decoded. A non-nil error marks the record torn, ending the scan there.
func (l *Log) applyRecord(payload []byte) error {
	d := wire.NewDecoder(payload)
	var apply func()
	switch kind := d.Byte(); kind {
	case recPrepare:
		p := &PreparedTx{TxID: d.Uvarint(), PT: d.Timestamp(), RST: d.Timestamp(), SV: d.Timestamps(), Writes: d.KVs()}
		apply = func() {
			l.prepared[p.TxID] = p
			l.noteSeq(p.TxID)
		}
	case recCommit:
		txID, ct := d.Uvarint(), d.Timestamp()
		apply = func() {
			if p, ok := l.prepared[txID]; ok {
				delete(l.prepared, txID)
				l.committed[txID] = p.Committed(ct)
			}
			l.noteSeq(txID)
		}
	case recCoordCommit:
		txID, ct, n := d.Uvarint(), d.Timestamp(), d.Uvarint()
		if n > 1<<16 {
			return fmt.Errorf("txlog: cohort count %d out of range", n)
		}
		var cohorts []uint16
		for i := uint64(0); i < n; i++ {
			cohorts = append(cohorts, uint16(d.Uvarint()))
		}
		apply = func() { l.decideLocked(txID, ct, cohorts) }
	case recCursor:
		dc, upTo := int(d.Byte()), d.Timestamp()
		apply = func() {
			if dc < l.numDCs && upTo > l.cursor[dc] {
				l.cursor[dc] = upTo
			}
		}
	case recAbort:
		txID := d.Uvarint()
		apply = func() { delete(l.prepared, txID) }
	case recResolved:
		txID := d.Uvarint()
		apply = func() { delete(l.coord, txID) }
	case recSeq:
		seq := d.Uvarint()
		apply = func() { l.maxSeq = max(l.maxSeq, seq) }
	default:
		return fmt.Errorf("txlog: unknown record kind %d", kind)
	}
	if err := d.Err(); err != nil {
		return err
	}
	apply()
	return nil
}

// noteSeq folds a transaction id's sequence component into the persisted
// maximum (see recSeq).
func (l *Log) noteSeq(txID uint64) { l.maxSeq = max(l.maxSeq, txID&seqMask) }
