package p4rt

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeWriteRequest feeds arbitrary bytes to the server's
// WriteRequest decoder: it must never panic, and a request it decodes
// must re-encode to bytes that decode to the same request. Bytes past
// the request and kinds with no encoding (a match or action kind outside
// the codec's) make the re-encoding differ from the input, so the
// property compares requests, not bytes. The seeds are the sample
// request, one of each match kind and action form, and its truncations.
func FuzzDecodeWriteRequest(f *testing.F) {
	wr := sampleWriteRequest()
	full := encodeWriteRequest(&wr)
	f.Add(full)
	for _, n := range []int{0, 8, 12, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	f.Add(append(full, 0xff))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeWriteRequest(b)
		if err != nil {
			return
		}
		again, err := decodeWriteRequest(encodeWriteRequest(&req))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v\nrequest %+v", err, req)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzDecodeReadResponse feeds arbitrary bytes to the client's
// ReadResponse decoder, which decodes what the server sent: it must
// never panic, and a response it decodes must re-encode to bytes that
// decode to the same response (compared as responses, for the reasons
// FuzzDecodeWriteRequest gives). The seeds are the sample request's
// entries as a response, one of each match kind and action form, and
// its truncations.
func FuzzDecodeReadResponse(f *testing.F) {
	var rr ReadResponse
	for _, u := range sampleWriteRequest().Updates {
		rr.Entries = append(rr.Entries, u.Entry)
	}
	full := encodeReadResponse(nil, &rr)
	f.Add(full)
	for _, n := range []int{0, 4, 8, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	f.Add(append(full, 0xff))
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := decodeReadResponse(b)
		if err != nil {
			return
		}
		again, err := decodeReadResponse(encodeReadResponse(nil, &resp))
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v\nresponse %+v", err, resp)
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("round trip changed the response:\n got %+v\nwant %+v", again, resp)
		}
	})
}

// FuzzReadRawFrame feeds arbitrary bytes to the frame reader that the
// client, the server and the chaos wire share: it must never panic, a
// frame it returns must re-encode through WriteRawFrame to exactly the
// bytes it consumed, and that frame followed by the input must read back
// as two frames through one bufio.Reader. The seeds are a request, a
// retried request, a header alone that declares a large payload, and
// truncations.
func FuzzReadRawFrame(f *testing.F) {
	var buf bytes.Buffer
	wr := sampleWriteRequest()
	if err := WriteRawFrame(&buf, RawFrame{Kind: FrameWrite, ID: 7, Payload: encodeWriteRequest(&wr)}); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	for _, n := range []int{0, 4, frameHeaderSize, len(full) - 1} {
		f.Add(full[:n])
	}
	retry := append([]byte(nil), full...)
	retry[4] = FrameWrite | FrameRetryFlag
	f.Add(retry)
	f.Add([]byte{0x03, 0xc0, 0, 0, FrameRead, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		fr, err := ReadRawFrame(r)
		if err != nil {
			return
		}
		consumed := b[:len(b)-r.Len()]
		var out bytes.Buffer
		if err := WriteRawFrame(&out, fr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoded frame differs from the %d bytes read:\n got %x\nwant %x", len(consumed), out.Bytes(), consumed)
		}
		// The frame and then the whole input, read through one
		// bufio.Reader as the client and the server read a connection:
		// the frame comes back twice.
		br := bufio.NewReader(bytes.NewReader(append(out.Bytes(), b...)))
		for i := range 2 {
			got, err := ReadRawFrame(br)
			if err != nil || got.Kind != fr.Kind || got.ID != fr.ID || !bytes.Equal(got.Payload, fr.Payload) {
				t.Fatalf("buffered read %d of two frames: got %+v, %v; want %+v", i, got, err, fr)
			}
		}
	})
}
