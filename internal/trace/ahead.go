package trace

import "sync"

// aheadRefill is how many requests a read-ahead producer draws per fill of
// its stream, and aheadDepth how many refills its ring holds. On the
// trace-ipc benchmark (2 vCPUs) a fourth buffer raised peak RSS to 1.122×
// the serial generator's, against 1.112× at three, for a throughput gain
// (1.375× against 1.348× sim_mreq_per_s) inside the run-to-run spread.
const (
	aheadRefill = 4096
	aheadDepth  = 3
)

// ReadAhead returns a Stream that yields exactly s's requests, however its
// reader cuts them, while a producer goroutine draws s's next refills ahead
// of the reader, so whoever reads the stream (lifetime.Serve, a Cursor, a
// FillBatch loop) overlaps s's generation with its own work. It suits a
// stream whose fill computes its requests from its own state alone and
// costs enough to be worth overlapping: the synthetic SPEC generators. s
// must not be read by anyone else once wrapped.
//
// The producer fills refills of 4096 requests into a ring of 3 buffers,
// allocated on the first read; NextBatch copies out of it in stream order.
// The producer runs only while a buffer is free: it returns once every
// buffer holds an unread refill, and the reader starts it again when it
// frees one. So a stream its reader abandons leaves no goroutine once its
// ring is full, and nothing needs closing. The stream's logical position is
// what its reader has read; the refills still in the ring go to its next
// read.
//
// A panic in s's fill is recovered on the producer and raised again in the
// reader when it reaches that refill, after the refills drawn before it;
// the stream ends there, and every later read raises it again. An empty
// fill ends the stream the same way, without the panic.
func ReadAhead(s Stream) Stream { return &ahead{s: s} }

// refill is one buffer of the ring: the requests of one fill of the stream,
// or, when empty, the end of the stream and what its fill panicked with.
type refill struct {
	ops      []Op
	addrs    []uint64
	panicked any
}

// ahead is the stream ReadAhead returns.
type ahead struct {
	s    Stream
	ring []refill // nil until the first read
	// filled carries one token per refill the producer has drawn, in ring
	// order; it has room for the whole ring, so sending never blocks.
	filled chan struct{}

	// The reader's state: the refill it holds (nil before the first read),
	// the next request in it, and the ring index of the refill after it.
	cur  *refill
	at   int
	next int

	// w is the ring index the producer fills next; only the running
	// producer touches it.
	w int

	mu      sync.Mutex
	free    int  // buffers neither drawn and unread nor held by the reader
	running bool // a producer is running, or the stream has ended
}

// NextBatch implements Stream. It returns fewer than len(ops) requests only
// at the end of the stream.
func (a *ahead) NextBatch(ops []Op, addrs []uint64) int {
	n := 0
	for n < len(ops) {
		if a.cur == nil || a.at == len(a.cur.ops) {
			if !a.advance() {
				break
			}
		}
		k := copy(ops[n:], a.cur.ops[a.at:])
		copy(addrs[n:n+k], a.cur.addrs[a.at:])
		a.at += k
		n += k
	}
	return n
}

// advance frees the refill the reader has read and takes the next one,
// waiting for the producer to draw it if need be. It reports false at the
// end of the stream, and raises a panic of the stream's fill again.
func (a *ahead) advance() bool {
	switch {
	case a.cur == nil:
		a.start()
	case len(a.cur.ops) > 0:
		a.release()
	default:
		// The refill that ended the stream stays held, so every later
		// read ends there too.
		return a.ended()
	}
	<-a.filled
	a.cur, a.at = &a.ring[a.next], 0
	a.next = (a.next + 1) % aheadDepth
	return len(a.cur.ops) > 0 || a.ended()
}

// ended raises again the panic that ended the stream, if one did, and
// otherwise reports false.
func (a *ahead) ended() bool {
	if a.cur.panicked != nil {
		panic(a.cur.panicked)
	}
	return false
}

// start allocates the ring and starts the first producer.
func (a *ahead) start() {
	// One allocation holds every buffer of the ring.
	mem := new(struct {
		ops   [aheadDepth][aheadRefill]Op
		addrs [aheadDepth][aheadRefill]uint64
	})
	a.ring = make([]refill, aheadDepth)
	for i := range a.ring {
		a.ring[i] = refill{ops: mem.ops[i][:], addrs: mem.addrs[i][:]}
	}
	a.filled = make(chan struct{}, aheadDepth)
	a.free, a.running = aheadDepth, true
	go a.produce()
}

// release hands the refill the reader has read back to the producer,
// starting a producer if none is running.
func (a *ahead) release() {
	a.mu.Lock()
	a.free++
	idle := !a.running
	a.running = true
	a.mu.Unlock()
	if idle {
		go a.produce()
	}
}

// produce is the producer goroutine: it draws a refill into each free
// buffer in ring order, and returns when no buffer is free or after the
// refill that ends the stream. In the latter case running stays set, so no
// producer starts again.
func (a *ahead) produce() {
	for a.take() {
		b := &a.ring[a.w]
		a.w = (a.w + 1) % aheadDepth
		end := a.fill(b)
		a.filled <- struct{}{}
		if end {
			return
		}
	}
}

// take claims a free buffer for the producer, or, when none is free, marks
// the producer stopped and reports false.
func (a *ahead) take() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.free == 0 {
		a.running = false
		return false
	}
	a.free--
	return true
}

// fill draws the stream's next refill into b and reports whether it ends
// the stream: an empty fill, or one that panicked, whose value b keeps.
func (a *ahead) fill(b *refill) (end bool) {
	defer func() {
		if p := recover(); p != nil {
			b.ops, b.addrs, b.panicked = b.ops[:0], b.addrs[:0], p
			end = true
		}
	}()
	n := a.s.NextBatch(b.ops[:aheadRefill], b.addrs[:aheadRefill])
	b.ops, b.addrs = b.ops[:n], b.addrs[:n]
	return n == 0
}
