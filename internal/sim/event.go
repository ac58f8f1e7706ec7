package sim

// Event-driven variant of the timing model. Where Run approximates bank
// contention with busy-until bookkeeping, RunEvent simulates the memory
// system as a discrete-event process: cores issue in simulated-time order,
// each bank runs an FR-FCFS scheduler over explicit read/write queues, and
// wear-leveling maintenance writes occupy their bank as distinct queue
// entries. The two models are cross-validated in tests; the event model is
// the reference, the analytic model is the fast path the experiments use.

import (
	"container/heap"
	"slices"

	"nvmwear/internal/trace"
	"nvmwear/internal/wl"
)

// evKind discriminates event types.
type evKind uint8

const (
	evCoreIssue evKind = iota
	evBankDone
)

// event is one scheduled occurrence.
type event struct {
	time float64
	kind evKind
	id   int // core or bank index
	seq  uint64
}

// eventHeap is a time-ordered min-heap (seq breaks ties deterministically).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// bankOp is a queued bank operation.
type bankOp struct {
	write       bool
	maintenance bool // wear-leveling writes: lowest priority
	core        int  // waiting core for reads, -1 otherwise
	issue       float64
}

// bankState is one bank's FR-FCFS queues.
type bankState struct {
	busy   bool
	reads  []bankOp
	writes []bankOp
	maint  []bankOp
}

// next pops the highest-priority pending op: reads first (FR-FCFS gives
// row hits then oldest reads; with flat latency that is FCFS reads), then
// demand writes, then maintenance.
func (b *bankState) next() (bankOp, bool) {
	if len(b.reads) > 0 {
		op := b.reads[0]
		b.reads = b.reads[1:]
		return op, true
	}
	if len(b.writes) > 0 {
		op := b.writes[0]
		b.writes = b.writes[1:]
		return op, true
	}
	if len(b.maint) > 0 {
		op := b.maint[0]
		b.maint = b.maint[1:]
		return op, true
	}
	return bankOp{}, false
}

// RunEvent simulates cfg.Requests memory requests with the event-driven
// engine. Demand writes wait in a buffer of QueueDepth entries; a core that
// finds it full retries one write latency later.
func RunEvent(lv wl.Leveler, stream trace.Stream, cfg Config) Result {
	cfg = cfg.withDefaults()
	m := newMeter(lv)
	computeNs := cfg.InstrPerMemReq / FreqGHz
	var banks [Banks]bankState

	var h eventHeap
	var seq uint64
	push := func(t float64, k evKind, id int) {
		seq++
		heap.Push(&h, event{time: t, kind: k, id: id, seq: seq})
	}
	for c := 0; c < Cores; c++ {
		push(computeNs, evCoreIssue, c)
	}

	reqs := trace.NewCursor(stream, cfg.Requests)
	var issued uint64
	var pendingWrites int
	var lastTime float64
	var coreDone [Cores]float64

	// startBank begins the bank's next queued op if idle.
	startBank := func(b int, now float64) {
		if banks[b].busy {
			return
		}
		op, ok := banks[b].next()
		if !ok {
			return
		}
		banks[b].busy = true
		dur := ReadLatNs
		if op.write {
			dur = WriteLatNs
		}
		done := now + dur
		if op.write && !op.maintenance {
			pendingWrites--
		}
		if op.core >= 0 {
			m.read(done - op.issue)
			// The waiting core resumes computing after the read returns.
			push(done+computeNs, evCoreIssue, op.core)
			coreDone[op.core] = done
		}
		push(done, evBankDone, b)
	}

	// send serves one demand request and queues it at its bank with the
	// wear-leveling writes it caused. It reports whether the core now
	// waits for a read.
	send := func(op trace.Op, addr uint64, core int, now float64) bool {
		a := m.step(op, addr)
		b := a.bank
		t := now + a.transNs
		entry := bankOp{write: op == trace.Write, core: -1, issue: t}
		if op == trace.Read {
			entry.core = core
			banks[b].reads = append(banks[b].reads, entry)
		} else {
			pendingWrites++
			banks[b].writes = append(banks[b].writes, entry)
		}
		// Wear-leveling writes occupy the same bank (global blocking for
		// non-tiered schemes spreads them across all banks round-robin).
		maint := bankOp{write: true, maintenance: true, core: -1, issue: t}
		for i := 0; i < int(a.swaps); i++ {
			tb := b
			if cfg.GlobalSwapBlocking {
				tb = (b + i) % Banks
			}
			banks[tb].writes = append(banks[tb].writes, maint)
		}
		for i := 0; i < int(a.merges); i++ {
			tb := (b + i) % Banks
			banks[tb].maint = append(banks[tb].maint, maint)
		}
		startBank(b, t)
		return op == trace.Read
	}

	for h.Len() > 0 {
		ev := heap.Pop(&h).(event)
		lastTime = ev.time
		switch ev.kind {
		case evBankDone:
			banks[ev.id].busy = false
			startBank(ev.id, ev.time)
		case evCoreIssue:
			if issued >= cfg.Requests {
				continue // core retires
			}
			if pendingWrites >= QueueDepth {
				// Write buffer full: back-pressure, retry shortly.
				push(ev.time+WriteLatNs, evCoreIssue, ev.id)
				continue
			}
			issued++
			r, _ := reqs.Next()
			if !send(r.Op, r.Addr, ev.id, ev.time) {
				// Posted write: the core computes on; a read reissues the
				// core when the bank completes it.
				push(ev.time+computeNs, evCoreIssue, ev.id)
			}
		}
	}
	return m.result(cfg, max(slices.Max(coreDone[:]), lastTime))
}
