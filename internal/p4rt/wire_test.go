package p4rt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
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

// countingWriter counts the Write calls it receives and keeps their bytes.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteRawFrameOneWrite: WriteRawFrame hands a frame to its writer in
// one Write, header and payload together, whatever the payload's size,
// and a 40-KB frame (the size of a read-back) allocates nothing once a
// pooled frame buffer has grown to hold it.
func TestWriteRawFrameOneWrite(t *testing.T) {
	for _, n := range []int{0, 100, frameChunk + 1} {
		f := RawFrame{Kind: FrameInject, ID: 9, Payload: bytes.Repeat([]byte{0xa5}, n)}
		var w countingWriter
		if err := WriteRawFrame(&w, f); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("a frame of %d payload bytes took %d writes, want 1", n, w.writes)
		}
		got, err := ReadRawFrame(&w.Buffer)
		if err != nil || got.Kind != f.Kind || got.ID != f.ID || !bytes.Equal(got.Payload, f.Payload) || w.Len() != 0 {
			t.Errorf("a frame of %d payload bytes did not read back whole: %v", n, err)
		}
	}
	f := RawFrame{Kind: FrameResponse, ID: 1, Payload: make([]byte, 40<<10)}
	// The race detector drops a quarter of sync.Pool puts at random; the
	// average over many frames, rounded down, absorbs those re-allocations.
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := WriteRawFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("writing a 40-KB frame allocated %.0f times per frame, want 0", allocs)
	}
}

// pushAndRespond answers the next request read from conn with a
// packet-in and the request's response, both in one Write, so the
// reader receives them in a single read.
func pushAndRespond(t *testing.T, conn net.Conn, pin PacketIn) {
	t.Helper()
	req, err := ReadRawFrame(conn)
	if err != nil {
		t.Error(err)
		return
	}
	var buf bytes.Buffer
	if err := WriteRawFrame(&buf, RawFrame{Kind: FramePacketIn, Payload: encodePacketIn(&pin)}); err != nil {
		t.Error(err)
	}
	if err := WriteRawFrame(&buf, RawFrame{Kind: FrameResponse, ID: req.ID, Payload: encodeStatus(OKStatus)}); err != nil {
		t.Error(err)
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Error(err)
	}
}

// TestClientReadsBackToBackFrames: a packet-in and a response that reach
// the client in one read are both delivered.
func TestClientReadsBackToBackFrames(t *testing.T) {
	c1, c2 := net.Pipe()
	cli := NewClient(c1)
	cli.SetTimeout(5 * time.Second)
	defer cli.Close()
	defer c2.Close()
	go pushAndRespond(t, c2, PacketIn{Payload: []byte("punt"), IngressPort: 4})
	if err := cli.PacketOut(PacketOut{Payload: []byte("x"), EgressPort: 1}); err != nil {
		t.Fatalf("the response behind a packet-in was lost: %v", err)
	}
	select {
	case pin := <-cli.PacketIns():
		if string(pin.Payload) != "punt" || pin.IngressPort != 4 {
			t.Errorf("packet-in = %+v", pin)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the packet-in ahead of the response was lost")
	}
}

// TestServerReadsBackToBackFrames: requests that reach the server in one
// read (a session hello, a packet-out and a read) are all served, and
// the packet-out's echo arrives as a packet-in.
func TestServerReadsBackToBackFrames(t *testing.T) {
	dev := newFakeDevice()
	srv := NewServer(dev, t.Logf)
	defer func() {
		srv.Close()
		close(dev.packetIns)
	}()
	c1, c2 := net.Pipe()
	defer c2.Close()
	if err := srv.ServeConn(c1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, f := range []RawFrame{
		{Kind: FrameHello, ID: 5},
		{Kind: FramePacketOut, ID: 1, Payload: encodePacketOut(&PacketOut{Payload: []byte("echo"), EgressPort: 2})},
		{Kind: FrameRead, ID: 2, Payload: encodeReadRequest(&ReadRequest{})},
	} {
		if err := WriteRawFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		if _, err := c2.Write(buf.Bytes()); err != nil {
			t.Error(err)
		}
	}()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(c2)
	responses, pins := map[uint64]bool{}, 0
	for len(responses) < 2 || pins < 1 {
		f, err := ReadRawFrame(br)
		if err != nil {
			t.Fatalf("after responses %v and %d packet-ins: %v", responses, pins, err)
		}
		switch f.Kind {
		case FrameResponse:
			st, _, err := decodeStatus(f.Payload)
			if err != nil || st.Code != OK {
				t.Errorf("response %d: %+v, %v", f.ID, st, err)
			}
			responses[f.ID] = true
		case FramePacketIn:
			pin, err := decodePacketIn(f.Payload)
			if err != nil || string(pin.Payload) != "echo" {
				t.Errorf("packet-in %+v, %v", pin, err)
			}
			pins++
		}
	}
	if !responses[1] || !responses[2] {
		t.Errorf("responses %v, want ids 1 and 2", responses)
	}
}
