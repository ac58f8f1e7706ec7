package nvm

// Span primitives: the device side of a region-granular data exchange.
//
// A span is the n lines base+(i^key), i < n, visited in order of i: a
// region read or written in its logical order under an XOR key (key 0 is
// the identity order; a nonzero key needs n a power of two above it). Each
// primitive stands for one loop of per-line calls and is observably that
// loop: every counter, wear value, spare replacement, retire-hook call,
// payload and death ordering comes out as the per-line calls leave them.
// Without a fault injector a span is one pass over the wear counters that
// adds to the traffic counters once; with one, it makes the per-line calls
// in the loop's order, so no injector draw moves.
//
// A payload slice holds at least n words.

// ReadSpan reads the span into buf: buf[i] = ReadData(base + (i^key)) for
// i < n.
func (d *Device) ReadSpan(base, key, n uint64, buf []uint64) {
	if d.inj != nil {
		for i := uint64(0); i < n; i++ {
			buf[i] = d.ReadData(base + (i ^ key))
		}
		return
	}
	d.totalReads += n
	d.load(base, key, n, buf)
}

// ReadSpans reads two spans of n lines, interleaved line by line: for
// i < n, bufA[i] = ReadData(baseA + (i^keyA)), then bufB[i] =
// ReadData(baseB + (i^keyB)).
func (d *Device) ReadSpans(baseA, keyA, baseB, keyB, n uint64, bufA, bufB []uint64) {
	if d.inj != nil {
		for i := uint64(0); i < n; i++ {
			bufA[i] = d.ReadData(baseA + (i ^ keyA))
			bufB[i] = d.ReadData(baseB + (i ^ keyB))
		}
		return
	}
	d.totalReads += 2 * n
	d.load(baseA, keyA, n, bufA)
	d.load(baseB, keyB, n, bufB)
}

// WriteSpan writes buf to the span: WriteData(base + (i^key), buf[i]) for
// i < n.
func (d *Device) WriteSpan(base, key, n uint64, buf []uint64) {
	if d.inj != nil {
		for i := uint64(0); i < n; i++ {
			d.WriteData(base+(i^key), buf[i])
		}
		return
	}
	if d.data != nil {
		for i := uint64(0); i < n; i++ {
			d.data[base+(i^key)] = buf[i]
		}
	}
	d.wearSpan(base, key, n)
}

// WriteSpans writes two spans of n lines, interleaved line by line: for
// i < n, WriteData(baseA + (i^keyA), bufA[i]), then WriteData(baseB +
// (i^keyB), bufB[i]). With bufA and bufB both nil the spans carry no
// data (the GTD's translation lines): each line is written as by Write.
func (d *Device) WriteSpans(baseA, keyA, baseB, keyB, n uint64, bufA, bufB []uint64) {
	if d.inj != nil {
		for i := uint64(0); i < n; i++ {
			d.writeLine(baseA+(i^keyA), bufA, i)
			d.writeLine(baseB+(i^keyB), bufB, i)
		}
		return
	}
	if d.data != nil && bufA != nil {
		for i := uint64(0); i < n; i++ {
			d.data[baseA+(i^keyA)] = bufA[i]
			d.data[baseB+(i^keyB)] = bufB[i]
		}
	}
	if d.dead {
		return
	}
	// Line j of the interleaving is line j/2 of span A (even j) or B (odd j).
	j := uint64(0)
	for ; j < 2*n; j++ {
		pma := baseA + (j/2 ^ keyA)
		if j&1 == 1 {
			pma = baseB + (j/2 ^ keyB)
		}
		if d.writes[pma] >= d.lineEndurance(pma) && !d.replaceLine(pma) {
			break
		}
		d.writes[pma]++
	}
	d.totalWrites += j
}

// MoveSpan moves n lines offset-preserving: MoveData(dst+i, src+i) for
// i < n.
func (d *Device) MoveSpan(dst, src, n uint64) {
	if d.inj != nil {
		for i := uint64(0); i < n; i++ {
			d.MoveData(dst+i, src+i)
		}
		return
	}
	if d.data != nil {
		for i := uint64(0); i < n; i++ {
			d.data[dst+i] = d.data[src+i]
		}
	}
	d.wearSpan(dst, 0, n)
}

// wearSpan wears the span's lines in order as Write does without an
// injector: per line the endurance check and spare replacement, stopping
// at death, with the traffic counter added once.
func (d *Device) wearSpan(base, key, n uint64) {
	if d.dead {
		return
	}
	i := uint64(0)
	for ; i < n; i++ {
		pma := base + (i ^ key)
		if d.writes[pma] >= d.lineEndurance(pma) && !d.replaceLine(pma) {
			break
		}
		d.writes[pma]++
	}
	d.totalWrites += i
}

// load copies the span's payloads into buf (zeros when the device tracks
// no data, as ReadData returns).
func (d *Device) load(base, key, n uint64, buf []uint64) {
	if d.data == nil {
		clear(buf[:n])
		return
	}
	for i := uint64(0); i < n; i++ {
		buf[i] = d.data[base+(i^key)]
	}
}

// writeLine is one line of WriteSpans written through the per-line
// primitive.
func (d *Device) writeLine(pma uint64, buf []uint64, i uint64) {
	if buf == nil {
		d.Write(pma)
		return
	}
	d.WriteData(pma, buf[i])
}
