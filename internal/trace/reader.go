package trace

import (
	"encoding/binary"
	"fmt"
	"os"

	"tse/internal/bitvec"
)

// Batch is the structure-of-arrays view one decode step fills: parallel
// tick/port/key columns, with every key sliced out of one flat word
// arena allocated at construction. Next overwrites the arena in place,
// so a Batch is reused for the whole replay — zero per-packet (and zero
// per-batch) allocation, which BenchmarkReplayDecode asserts with
// AllocsPerRun.
type Batch struct {
	// Ticks, Ports, Keys are the decoded columns, all len == the last
	// Next's return value. Keys[i] aliases the arena; it is valid until
	// the next call to Next.
	Ticks []int64
	Ports []int
	Keys  []bitvec.Vec

	arena []uint64 // flat key storage: cap × words, Keys[i] = arena[i*words:...]
	words int
	ticks []int64
	ports []int
	keys  []bitvec.Vec
}

// NewBatch builds a reusable batch holding up to n keys of the given
// word count. All storage is allocated here, once.
func NewBatch(words, n int) *Batch {
	b := &Batch{
		arena: make([]uint64, n*words),
		words: words,
		ticks: make([]int64, n),
		ports: make([]int, n),
		keys:  make([]bitvec.Vec, n),
	}
	for i := 0; i < n; i++ {
		b.keys[i] = bitvec.Vec(b.arena[i*words : (i+1)*words])
	}
	return b
}

// Cap returns the batch's capacity in records.
func (b *Batch) Cap() int { return len(b.keys) }

// Reader decodes a trace image. Open maps the file into memory (the
// records are read straight out of the mapping, no buffering, no read
// syscalls); NewReader wraps bytes already in memory. A Reader is a
// sequential cursor — use Reset to rewind for another pass.
type Reader struct {
	data   []byte // full image (mapped or caller-provided)
	recs   []byte // record region
	words  int
	count  uint64
	layout string
	next   uint64 // record cursor
	mapped bool   // munmap on Close
}

// NewReader validates the header of an in-memory trace image and
// returns a Reader over it.
func NewReader(data []byte) (*Reader, error) {
	words, count, layout, recOff, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	return &Reader{
		data:   data,
		recs:   data[recOff:],
		words:  words,
		count:  count,
		layout: layout,
	}, nil
}

// Open maps the trace file at path and returns a Reader over the
// mapping. Close unmaps it.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := mmap(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("trace: mapping %s: %w", path, err)
	}
	r, err := NewReader(data)
	if err != nil {
		munmap(data)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.mapped = true
	return r, nil
}

// Close releases the mapping (a no-op for NewReader readers).
func (r *Reader) Close() error {
	if !r.mapped {
		return nil
	}
	r.mapped = false
	data := r.data
	r.data, r.recs = nil, nil
	return munmap(data)
}

// Words returns the per-key word count.
func (r *Reader) Words() int { return r.words }

// Count returns the total record count.
func (r *Reader) Count() uint64 { return r.count }

// LayoutString returns the layout description recorded in the header
// ("name:width,...", bitvec.Layout.String form).
func (r *Reader) LayoutString() string { return r.layout }

// Layout resolves the recorded layout against the repository's standard
// layouts, or returns an error for a foreign layout (the records still
// decode — keys are raw words — but field-level interpretation needs
// the caller to know the layout).
func (r *Reader) Layout() (*bitvec.Layout, error) {
	for _, l := range []*bitvec.Layout{
		bitvec.IPv4Tuple, bitvec.IPv4TuplePort, bitvec.IPv6Tuple,
		bitvec.HYP, bitvec.HYP2,
	} {
		if l.String() == r.layout {
			return l, nil
		}
	}
	return nil, fmt.Errorf("trace: unknown layout %q", r.layout)
}

// MaxPort returns the largest in_port of any record, or -1 for an empty
// trace: one pass over the port column, independent of the cursor. A
// replay sizes (or checks) its pool's vport count with it before the
// clock starts.
func (r *Reader) MaxPort() int {
	rs := recordSize(r.words)
	top := -1
	for off, end := 4, int(r.count)*rs; off < end; off += rs {
		top = max(top, int(binary.LittleEndian.Uint32(r.recs[off:])))
	}
	return top
}

// Reset rewinds the cursor to the first record.
func (r *Reader) Reset() { r.next = 0 }

// Next decodes up to b.Cap() records into b and returns the number
// decoded; 0 means end of trace. It performs no allocation: ticks,
// ports and key words are written into the batch's preallocated columns
// and flat arena.
func (r *Reader) Next(b *Batch) int {
	if b.words != r.words {
		panic(fmt.Sprintf("trace: batch has %d-word keys, trace has %d", b.words, r.words))
	}
	n := int(r.count - r.next)
	if n <= 0 {
		b.Ticks, b.Ports, b.Keys = b.ticks[:0], b.ports[:0], b.keys[:0]
		return 0
	}
	if n > b.Cap() {
		n = b.Cap()
	}
	rs := recordSize(r.words)
	off := int(r.next) * rs
	for i := 0; i < n; i++ {
		rec := r.recs[off : off+rs]
		b.ticks[i] = int64(binary.LittleEndian.Uint32(rec[0:]))
		b.ports[i] = int(binary.LittleEndian.Uint32(rec[4:]))
		key := b.arena[i*r.words : (i+1)*r.words]
		for w := 0; w < r.words; w++ {
			key[w] = binary.LittleEndian.Uint64(rec[8+8*w:])
		}
		off += rs
	}
	r.next += uint64(n)
	b.Ticks, b.Ports, b.Keys = b.ticks[:n], b.ports[:n], b.keys[:n]
	return n
}
