package metrics

// HitWindow measures a hit rate over a fixed-size observation window of
// recent events, the mechanism SAWL uses to sample the runtime cache hit
// rate (paper Sec 4.2: "size of the observation window", SOW).
//
// To keep the per-event cost O(1) without storing SOW booleans, the window
// is maintained as a ring of coarse sub-buckets: the window slides in steps
// of window/buckets events. This matches the paper's usage, which samples
// the hit rate every 100k requests rather than continuously.
type HitWindow struct {
	bucketCap uint64 // events per sub-bucket
	hits      []uint64
	total     []uint64
	cur       int
	curCount  uint64
}

// NewHitWindow returns a window covering `window` events using `buckets`
// ring slots. window must be >= buckets >= 1.
func NewHitWindow(window uint64, buckets int) *HitWindow {
	if buckets < 1 {
		buckets = 1
	}
	if window < uint64(buckets) {
		window = uint64(buckets)
	}
	return &HitWindow{
		bucketCap: window / uint64(buckets),
		hits:      make([]uint64, buckets),
		total:     make([]uint64, buckets),
	}
}

// RecordRun adds n identical events at once, leaving the ring in exactly
// the state n single events would: whole sub-buckets are filled per
// iteration instead of per event.
func (w *HitWindow) RecordRun(hit bool, n uint64) {
	for n > 0 {
		if w.curCount == w.bucketCap {
			w.cur++
			if w.cur == len(w.hits) {
				w.cur = 0
			}
			w.hits[w.cur] = 0
			w.total[w.cur] = 0
			w.curCount = 0
		}
		take := min(w.bucketCap-w.curCount, n)
		w.curCount += take
		w.total[w.cur] += take
		if hit {
			w.hits[w.cur] += take
		}
		n -= take
	}
}

// Rate returns the hit rate over the window. Before any event it returns 1,
// so that a fresh window never looks like a low-hit-rate emergency.
func (w *HitWindow) Rate() float64 {
	var h, t uint64
	for i := range w.hits {
		h += w.hits[i]
		t += w.total[i]
	}
	if t == 0 {
		return 1
	}
	return float64(h) / float64(t)
}
