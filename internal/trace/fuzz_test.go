package trace

import (
	"bytes"
	"testing"
)

// FuzzReader checks that arbitrary byte streams never panic the binary
// decoder and that whatever decodes also re-encodes byte-identically.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var decoded []Request
		for {
			req, err := r.Next()
			if err != nil {
				break
			}
			decoded = append(decoded, req)
		}
		// Round-trip what decoded.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, req := range decoded {
			if err := w.Write(req); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		if len(decoded) > 0 && !bytes.Equal(buf.Bytes(), data[:len(decoded)*recordSize]) {
			t.Fatalf("re-encode mismatch for %d records", len(decoded))
		}
	})
}
