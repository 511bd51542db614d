package p4rt

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Frame layout: u32 payload length | u8 kind | u64 request id | payload.
// Request ids pair responses with requests; pushes (packet-in) use id 0.

// RawFrame is one wire frame. The client and the server exchange them,
// and transport middleboxes (internal/chaos's fault-injection proxy)
// relay or reorder them without interpreting their payloads. The Kind
// byte may carry FrameRetryFlag; mask it off before comparing against
// the other Frame* constants.
type RawFrame struct {
	Kind    uint8
	ID      uint64
	Payload []byte
}

// Frame kinds.
const (
	FrameSetPipeline uint8 = 1
	FrameWrite       uint8 = 2
	FrameRead        uint8 = 3
	FramePacketOut   uint8 = 4
	FramePacketIn    uint8 = 5
	FrameResponse    uint8 = 6
	FrameInject      uint8 = 7

	// FrameHello announces a client transport session: the id field
	// carries the client's session id and there is no response. The
	// server keys its response replay cache on (session, request id) so
	// an in-RPC retry after a reconnect deduplicates against work the
	// previous connection already applied.
	FrameHello uint8 = 8

	// FrameRetryFlag marks a request frame as a re-send of an earlier
	// frame with the same id: the server may serve it from its replay
	// cache instead of executing the request a second time. It is a flag
	// bit on the kind byte, not a kind of its own.
	FrameRetryFlag uint8 = 0x80
)

const (
	frameHeaderSize = 4 + 1 + 8
	maxFrameSize    = 64 << 20 // 64 MiB guards against corrupt length prefixes
	// frameChunk bounds what ReadRawFrame allocates before the payload's
	// bytes arrive: a frame up to this size gets one buffer of its exact
	// size, and a larger one grows its buffer only as the peer sends.
	frameChunk = 1 << 20
)

// frameBufs holds the buffers WriteRawFrame assembles frames in. A
// buffer that outgrew a header and frameChunk bytes of payload is left
// to the garbage collector, so the pool keeps none larger.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteRawFrame writes one frame to w in a single Write, header and
// payload together, assembled in a buffer reused across frames.
func WriteRawFrame(w io.Writer, f RawFrame) error {
	bp := frameBufs.Get().(*[]byte)
	buf := slices.Grow((*bp)[:0], frameHeaderSize+len(f.Payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = append(buf, f.Kind)
	buf = binary.BigEndian.AppendUint64(buf, f.ID)
	buf = append(buf, f.Payload...)
	_, err := w.Write(buf)
	if cap(buf) <= frameHeaderSize+frameChunk {
		*bp = buf
		frameBufs.Put(bp)
	}
	return err
}

// ReadRawFrame reads one frame from r. A header that declares more than
// maxFrameSize bytes is an error. Past the first frameChunk bytes the
// payload buffer at most doubles what has arrived, so a peer cannot make
// the reader allocate what it only declares. The client and the server
// read each connection through one bufio.Reader, so the header and a
// small payload cost one read between them, or none when an earlier
// read brought them in.
func ReadRawFrame(r io.Reader) (RawFrame, error) {
	hdr := make([]byte, frameHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return RawFrame{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr[0:4]))
	if n > maxFrameSize {
		return RawFrame{}, fmt.Errorf("p4rt: frame of %d bytes exceeds limit", n)
	}
	p := make([]byte, min(n, frameChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(r, p[got:]); err != nil {
			return RawFrame{}, err
		}
		if got = len(p); got == n {
			break
		}
		p = append(p, make([]byte, min(n-got, got))...)
	}
	return RawFrame{Kind: hdr[4], ID: binary.BigEndian.Uint64(hdr[5:13]), Payload: p}, nil
}
