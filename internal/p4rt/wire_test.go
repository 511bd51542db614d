package p4rt

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadRawFrameDeclaredSize: a bare 13-byte header that declares a
// 60 MiB payload (under maxFrameSize) must fail with the stream's end
// without the reader allocating what the header only declares.
func TestReadRawFrameDeclaredSize(t *testing.T) {
	hdr := make([]byte, frameHeaderSize)
	binary.BigEndian.PutUint32(hdr[0:4], 60<<20)
	hdr[4] = FrameWrite
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRawFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no payload read as a frame")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Errorf("reading a header that declares 60 MiB allocated %d bytes, want < 2 MiB", alloc)
	}
}

// TestRawFrameRoundTrip writes frames on both sides of frameChunk
// through WriteRawFrame and reads them back, and checks that a header
// declaring more than maxFrameSize is refused.
func TestRawFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var want []RawFrame
	for i, n := range []int{0, 1, frameChunk, frameChunk + 1, 3*frameChunk + 5} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(j * (i + 1))
		}
		f := RawFrame{Kind: FrameRead | FrameRetryFlag, ID: uint64(i) << 40, Payload: p}
		if err := WriteRawFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	for i, w := range want {
		got, err := ReadRawFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != w.Kind || got.ID != w.ID || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("frame %d of %d bytes did not round-trip", i, len(w.Payload))
		}
	}
	hdr := make([]byte, frameHeaderSize)
	binary.BigEndian.PutUint32(hdr[0:4], maxFrameSize+1)
	if _, err := ReadRawFrame(bytes.NewReader(hdr)); err == nil {
		t.Error("a frame over maxFrameSize was accepted")
	}
}
