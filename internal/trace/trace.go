// Package trace defines the memory-request representation shared by the
// workload generators, the wear-leveling schemes and the simulators, a
// binary codec so traces can be captured to disk by cmd/tracegen and
// replayed later, and a human-readable text writer.
//
// A request addresses one memory line (the last-level-cache-line-sized
// atomic access unit of Sec 2.1). Streams of requests are what the paper
// calls "memory requests" arriving at the memory controller.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op is a request type.
type Op uint8

const (
	// Read is a load of one line.
	Read Op = iota
	// Write is a store of one line.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Request is a single line-granular memory access. Addr is a logical line
// address (lma).
type Request struct {
	Op   Op
	Addr uint64
}

// Stream produces an unbounded request sequence. Workload generators
// implement Stream; the engines draw from it until their stop condition
// (device failure, write or request budget) is met. NextBatch fills ops and
// addrs, two parallel slices of equal length, with the stream's next
// len(ops) requests and returns the count filled (always len(ops) for the
// unbounded generator streams). The sequence a stream produces does not
// depend on how its reader cuts it into batches.
type Stream interface {
	NextBatch(ops []Op, addrs []uint64) int
}

// FillBatch fills ops/addrs (equal lengths) with the next requests of s and
// returns the number of requests filled.
func FillBatch(s Stream, ops []Op, addrs []uint64) int {
	return s.NextBatch(ops, addrs)
}

// cursorRefill is how many requests a Cursor draws per FillBatch call.
const cursorRefill = 4096

// Cursor reads a bounded prefix of a Stream one request at a time, for the
// consumers that act on each request in turn (the timing models, the
// per-request reference loops, the commands). It draws from the stream in
// FillBatch refills, but never past its bound, so the stream is left where
// the bound puts it and another reader may go on from there.
type Cursor struct {
	s     Stream
	left  uint64 // requests the cursor may still draw from s
	ops   []Op
	addrs []uint64
	next  int // index of the next buffered request
}

// NewCursor returns a cursor over the next n requests of s.
func NewCursor(s Stream, n uint64) *Cursor {
	k := min(n, cursorRefill)
	return &Cursor{s: s, left: n, ops: make([]Op, 0, k), addrs: make([]uint64, 0, k)}
}

// Next returns the next request, or false once the cursor's n requests
// have been read.
func (c *Cursor) Next() (Request, bool) {
	if c.next == len(c.ops) && !c.refill() {
		return Request{}, false
	}
	i := c.next
	c.next++
	return Request{Op: c.ops[i], Addr: c.addrs[i]}, true
}

// refill draws the next buffer of requests, up to the bound; it reports
// whether any were drawn.
func (c *Cursor) refill() bool {
	k := min(c.left, uint64(cap(c.ops)))
	n := FillBatch(c.s, c.ops[:k], c.addrs[:k])
	c.ops, c.addrs = c.ops[:n], c.addrs[:n]
	c.left -= uint64(n)
	c.next = 0
	return n > 0
}

// recordSize is the on-disk size of one binary record: op byte + 8-byte
// little-endian address.
const recordSize = 9

// Writer encodes requests to an io.Writer in the binary trace format.
type Writer struct {
	w   *bufio.Writer
	buf [recordSize]byte
}

// NewWriter creates a trace writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one request.
func (tw *Writer) Write(r Request) error {
	tw.buf[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(tw.buf[1:], r.Addr)
	_, err := tw.w.Write(tw.buf[:])
	return err
}

// Flush flushes buffered records.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader decodes the binary trace format.
type Reader struct {
	r   *bufio.Reader
	buf [recordSize]byte
}

// NewReader creates a trace reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next returns the next request; io.EOF at end of trace.
func (tr *Reader) Next() (Request, error) {
	if _, err := io.ReadFull(tr.r, tr.buf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Request{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Request{}, err
	}
	op := Op(tr.buf[0])
	if op != Read && op != Write {
		return Request{}, fmt.Errorf("trace: invalid op byte %d", tr.buf[0])
	}
	return Request{Op: op, Addr: binary.LittleEndian.Uint64(tr.buf[1:])}, nil
}

// WriteText encodes requests in the human-readable "W 0x1a2b" format, one
// per line.
func WriteText(w io.Writer, rs []Request) error {
	bw := bufio.NewWriter(w)
	for _, r := range rs {
		if _, err := fmt.Fprintf(bw, "%s %#x\n", r.Op, r.Addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadAll decodes an entire binary trace.
func ReadAll(r io.Reader) ([]Request, error) {
	tr := NewReader(r)
	var out []Request
	for {
		req, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
}

// Loop adapts a finite request slice into an unbounded Stream by cycling
// through it — how captured traces replay into lifetime experiments, which
// need more requests than any finite trace holds.
type Loop struct {
	reqs []Request
	next int
}

// NewLoop creates a looping stream. The slice must be nonempty.
func NewLoop(reqs []Request) *Loop {
	if len(reqs) == 0 {
		panic("trace: empty loop")
	}
	return &Loop{reqs: reqs}
}

// NextBatch implements Stream by copying from the cycle.
func (l *Loop) NextBatch(ops []Op, addrs []uint64) int {
	for i := range ops {
		r := l.reqs[l.next]
		l.next++
		if l.next == len(l.reqs) {
			l.next = 0
		}
		ops[i] = r.Op
		addrs[i] = r.Addr
	}
	return len(ops)
}
