// Package trace implements the repository's compact binary flow-trace
// format and the wire-rate replay engine over it — the ingest layer the
// ROADMAP's "wire-rate ingest" item asked for. Where the experiment
// runners synthesize bitvec.Vec headers one at a time (modelling the
// classifier but never the receive path), a trace file replays through
// the PMD pool the way a DPDK rx burst would: mmap'd records decoded
// straight into reusable structure-of-arrays batches (one flat word
// arena, zero per-packet allocation) and dispatched to
// datapath.Pool.ProcessBatchPorts in 32-packet bursts.
//
// File layout (all little-endian):
//
//	offset  size  field
//	0       8     magic "TSETRC01"
//	8       4     words    — uint64 words per flow key (layout.Words())
//	12      4     layout   — byte length of the layout string
//	16      8     count    — number of records
//	24      L     layout string ("name:width,..."), zero-padded to 8 B
//	...           records
//
// Record layout (fixed width, 8 + 8*words bytes):
//
//	offset  size      field
//	0       4         tick     — virtual second the packet arrives in
//	4       4         in_port  — ingress vport
//	8       8*words   flow key — the bitvec.Vec words, in order
//
// Keys are stored as raw layout words, so decode is a straight word
// copy: no field extraction, no parsing, no byte swapping on
// little-endian hosts beyond the bounds-checked loads. At the IPv4Tuple
// layout (2 words) a record is 24 bytes — one minute of 10 Mpps traffic
// is ~14 GB, which is why the Reader maps the file instead of reading
// it.
package trace

import (
	"encoding/binary"
	"fmt"

	"tse/internal/bitvec"
)

// magic identifies a trace file; the trailing "01" is the format
// version.
const magic = "TSETRC01"

const (
	headerFixedLen = 24
	countOffset    = 16
	// maxWords bounds the per-record key width a header may declare;
	// far above any layout in the repository (IPv6Tuple is 5 words) but
	// small enough that a corrupt header cannot demand absurd batches.
	maxWords = 64
	// maxLayoutLen bounds the layout-string length a header may declare,
	// so a corrupt header cannot point the record region past the file.
	maxLayoutLen = 4096
)

// recordSize returns the fixed record width for a key of the given word
// count.
func recordSize(words int) int { return 8 + 8*words }

// headerLen returns the full header length including the padded layout
// string.
func headerLen(layoutLen int) int {
	return headerFixedLen + (layoutLen+7)/8*8
}

// encodeHeader renders the file header for a layout with the given
// record count.
func encodeHeader(l *bitvec.Layout, count uint64) []byte {
	ls := l.String()
	hdr := make([]byte, headerLen(len(ls)))
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(l.Words()))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(ls)))
	binary.LittleEndian.PutUint64(hdr[countOffset:], count)
	copy(hdr[headerFixedLen:], ls)
	return hdr
}

// parseHeader validates data's header and returns the key word count,
// record count, layout string, and the offset of the first record.
func parseHeader(data []byte) (words int, count uint64, layout string, recOff int, err error) {
	if len(data) < headerFixedLen {
		return 0, 0, "", 0, fmt.Errorf("trace: short header (%d bytes)", len(data))
	}
	if string(data[:8]) != magic {
		return 0, 0, "", 0, fmt.Errorf("trace: bad magic %q", data[:8])
	}
	words = int(binary.LittleEndian.Uint32(data[8:]))
	if words < 1 || words > maxWords {
		return 0, 0, "", 0, fmt.Errorf("trace: implausible key width %d words", words)
	}
	layoutLen := int(binary.LittleEndian.Uint32(data[12:]))
	if layoutLen < 1 || layoutLen > maxLayoutLen {
		return 0, 0, "", 0, fmt.Errorf("trace: implausible layout length %d", layoutLen)
	}
	count = binary.LittleEndian.Uint64(data[countOffset:])
	recOff = headerLen(layoutLen)
	if len(data) < recOff {
		return 0, 0, "", 0, fmt.Errorf("trace: truncated layout string")
	}
	layout = string(data[headerFixedLen : headerFixedLen+layoutLen])
	avail := uint64(len(data)-recOff) / uint64(recordSize(words))
	if count > avail {
		return 0, 0, "", 0, fmt.Errorf("trace: header claims %d records, file holds %d", count, avail)
	}
	return words, count, layout, recOff, nil
}
