package p4rt

import (
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
