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
