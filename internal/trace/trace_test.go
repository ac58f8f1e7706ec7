package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("op strings")
	}
	if Op(9).String() != "Op(9)" {
		t.Fatalf("bad op string: %s", Op(9))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	reqs := []Request{
		{Read, 0}, {Write, 1}, {Write, 0xdeadbeefcafe}, {Read, ^uint64(0)},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range reqs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	err := quick.Check(func(addrs []uint64, ops []bool) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var reqs []Request
		for i, a := range addrs {
			op := Read
			if i < len(ops) && ops[i] {
				op = Write
			}
			req := Request{Op: op, Addr: a}
			reqs = append(reqs, req)
			if err := w.Write(req); err != nil {
				return false
			}
		}
		w.Flush()
		r := NewReader(&buf)
		for _, want := range reqs {
			got, err := r.Next()
			if err != nil || got != want {
				return false
			}
		}
		_, err := r.Next()
		return err == io.EOF
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejectsTruncatedAndInvalid(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
	bad := make([]byte, 9)
	bad[0] = 77
	r = NewReader(bytes.NewReader(bad))
	if _, err := r.Next(); err == nil {
		t.Fatal("invalid op accepted")
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, []Request{{Write, 16}, {Read, 0xff}, {Read, 0}}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "W 0x10\nR 0xff\nR 0x0\n"; got != want {
		t.Fatalf("WriteText wrote %q, want %q", got, want)
	}
}

// counter is a stream of writes to 0, 1, 2, ... that records how many
// requests it has produced.
type counter struct{ drawn uint64 }

func (c *counter) NextBatch(ops []Op, addrs []uint64) int {
	for i := range ops {
		ops[i], addrs[i] = Write, c.drawn
		c.drawn++
	}
	return len(ops)
}

// TestCursorStopsAtItsBound checks that a cursor yields its stream's first
// n requests in order, then stops, having drawn none past them.
func TestCursorStopsAtItsBound(t *testing.T) {
	for _, n := range []uint64{0, 1, cursorRefill - 1, cursorRefill, 2*cursorRefill + 5} {
		s := &counter{}
		c := NewCursor(s, n)
		for i := uint64(0); i < n; i++ {
			r, ok := c.Next()
			if !ok || r != (Request{Write, i}) {
				t.Fatalf("n=%d: request %d = %+v, %v", n, i, r, ok)
			}
		}
		if _, ok := c.Next(); ok {
			t.Fatalf("n=%d: cursor read past its bound", n)
		}
		if s.drawn != n {
			t.Fatalf("n=%d: cursor drew %d requests", n, s.drawn)
		}
	}
}

func TestReadAll(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Request{{Write, 1}, {Read, 2}, {Write, 3}}
	for _, r := range want {
		w.Write(r)
	}
	w.Flush()
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Fatalf("ReadAll: %v %v", got, err)
	}
}

func TestLoopCycles(t *testing.T) {
	l := NewLoop([]Request{{Write, 1}, {Read, 2}})
	ops, addrs := make([]Op, 5), make([]uint64, 5)
	for i, want := range []Request{{Write, 1}, {Read, 2}, {Write, 1}, {Read, 2}, {Write, 1}} {
		FillBatch(l, ops[i:i+1], addrs[i:i+1])
		if got := (Request{ops[i], addrs[i]}); got != want {
			t.Fatalf("step %d: %+v != %+v", i, got, want)
		}
	}
}

func TestLoopPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLoop(nil)
}
