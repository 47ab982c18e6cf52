package tcp

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// splitFrame is one frame the splitter handed out.
type splitFrame struct {
	from transport.NodeID
	m    wire.Message
}

// splitChunks feeds chunks, in order, through s as the read loop does —
// each chunk copied into space in as many pieces as space allows — and
// returns every frame next hands out and the error that ended the stream.
func splitChunks(s *frameSplitter, chunks ...[]byte) ([]splitFrame, error) {
	var frames []splitFrame
	for _, c := range chunks {
		for len(c) > 0 {
			k := copy(s.space(), c)
			c = c[k:]
			s.filled(k)
			for {
				from, m, err := s.next()
				if err != nil {
					return frames, err
				}
				if m == nil {
					break
				}
				frames = append(frames, splitFrame{from, m})
			}
		}
	}
	return frames, nil
}

// encodeFrames re-encodes frames into one stream.
func encodeFrames(frames []splitFrame) []byte {
	enc := wire.NewEncoder()
	for _, f := range frames {
		appendFrame(enc, f.from, f.m)
	}
	return bytes.Clone(enc.Bytes())
}

// splitTestStream is small frames around one frame larger than the read
// buffer, encoded back to back, and the end offset of each frame.
func splitTestStream() (stream []byte, ends []int) {
	from := transport.ServerID(1, 2)
	items := make([]wire.Item, 20)
	for i := range items {
		items[i] = wire.Item{Key: fmt.Sprintf("user%08d", i), Value: []byte("12345678"), UT: hlc.New(int64(i), 0)}
	}
	msgs := []wire.Message{
		&wire.Heartbeat{SrcDC: 1, Partition: 2, TS: hlc.New(100, 1)},
		&wire.TxReadResp{ReqID: 7, Items: items},
		&wire.CommitReq{ReqID: 9, Writes: []wire.KV{{Key: "big", Value: bytes.Repeat([]byte("v"), readBufSize+100)}}},
		&wire.TxReadReq{ReqID: 8, Keys: []string{"a", "bb", "ccc"}},
		&wire.Heartbeat{SrcDC: 1, Partition: 2, TS: hlc.New(200, 0)},
	}
	enc := wire.NewEncoder()
	for _, m := range msgs {
		appendFrame(enc, from, m)
		ends = append(ends, len(enc.Bytes()))
	}
	return enc.Bytes(), ends
}

// TestFrameSplitAtEveryOffset feeds one stream, which holds a frame larger
// than the read buffer, split in two at every offset: each split must
// yield exactly the frames encoded, byte for byte. One splitter serves
// every split, so each also starts from the state the previous one left.
// Under -race, where each offset costs hundreds of times more, the middle
// of the large frame's body is sampled at every 61st offset.
func TestFrameSplitAtEveryOffset(t *testing.T) {
	stream, ends := splitTestStream()
	s := newFrameSplitter()
	for k := 0; k <= len(stream); k++ {
		if raceEnabled && k > ends[1]+4096 && k < ends[2]-4096 && k%61 != 0 {
			continue
		}
		frames, err := splitChunks(s, stream[:k], stream[k:])
		if err != nil {
			t.Fatalf("split at %d: %v", k, err)
		}
		if len(frames) != len(ends) {
			t.Fatalf("split at %d: %d frames, want %d", k, len(frames), len(ends))
		}
		if got := encodeFrames(frames); !bytes.Equal(got, stream) {
			t.Fatalf("split at %d: frames re-encode to %d bytes that differ from the %d fed", k, len(got), len(stream))
		}
	}
	if c := cap(s.scratch); c < readBufSize || c > maxRetainedReadBuf {
		t.Fatalf("scratch for the large frame has capacity %d, want it kept within (%d, %d]", c, readBufSize, maxRetainedReadBuf)
	}

	// A frame above the retained bound is delivered, and its buffer is not
	// kept for the next one.
	huge := encodeFrames([]splitFrame{{transport.ServerID(0, 0), &wire.CommitReq{Writes: []wire.KV{
		{Key: "huge", Value: make([]byte, 2*maxRetainedReadBuf)}}}}})
	if frames, err := splitChunks(s, huge); err != nil || len(frames) != 1 {
		t.Fatalf("a %d-byte frame split into %d frames (%v), want 1", len(huge), len(frames), err)
	}
	if c := cap(s.scratch); c > maxRetainedReadBuf {
		t.Fatalf("a %d-byte frame left %d bytes of scratch behind, want at most %d", len(huge), c, maxRetainedReadBuf)
	}
}

// Allocation the splitter may make per input byte, plus fixed slack for
// the read buffer and the first doubling of a large frame's scratch. The
// per-byte figure is wire.Decode's: a 9-byte frame decodes to a message
// struct several times its size.
const (
	fuzzAllocPerByte = 512
	fuzzAllocSlack   = 1 << 20
)

// FuzzFrameStream feeds arbitrary bytes, cut into chunks whose sizes come
// from cuts, through the splitter, and checks that it never panics, that
// its allocation stays within fuzzAllocPerByte per input byte plus
// fuzzAllocSlack (a length prefix alone must not reserve its claim), that
// the chunking changes nothing, and that the frames it decodes re-encode
// to a stream that splits and re-encodes to the same bytes.
func FuzzFrameStream(f *testing.F) {
	stream, ends := splitTestStream()
	f.Add(stream[:ends[1]], []byte{0, 12, 255})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		var chunks [][]byte
		for rest, i := stream, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)])+1)
			}
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frames, err := splitChunks(newFrameSplitter(), chunks...)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(fuzzAllocPerByte*len(stream)+fuzzAllocSlack) {
			t.Fatalf("%d input bytes allocated %d bytes", len(stream), alloc)
		}

		whole, wholeErr := splitChunks(newFrameSplitter(), stream)
		encoded := encodeFrames(frames)
		if (err == nil) != (wholeErr == nil) || !bytes.Equal(encoded, encodeFrames(whole)) {
			t.Fatalf("cut into %d chunks: %d frames (err %v); whole: %d frames (err %v)",
				len(chunks), len(frames), err, len(whole), wholeErr)
		}
		again, err := splitChunks(newFrameSplitter(), encoded)
		if err != nil {
			t.Fatalf("re-encoded frames do not split: %v", err)
		}
		if len(again) != len(frames) || !bytes.Equal(encodeFrames(again), encoded) {
			t.Fatalf("%d frames re-encode to bytes that split into %d frames of other bytes", len(frames), len(again))
		}
	})
}
