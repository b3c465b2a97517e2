// Package pcap reads and writes classic libpcap capture files (the
// 0xa1b2c3d4 format, version 2.4). The paper's synthetic tests replay
// adversarial traffic from pcap files ("via replaying a pcap file like in
// [19]", §5.4); cmd/tsegen writes such files and cmd/tseattack replays
// them through the simulated switch.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MagicLE is the classic pcap magic number in this implementation's native
// (little-endian) byte order; MagicBE is the byte-swapped variant.
const (
	MagicLE = 0xa1b2c3d4
	MagicBE = 0xd4c3b2a1
)

// LinkTypeEthernet is the only link type this repository uses.
const LinkTypeEthernet = 1

// DefaultSnapLen is the snapshot length written into new files.
const DefaultSnapLen = 65535

const (
	globalHeaderLen = 24
	recordHeaderLen = 16
	// maxRecordLen bounds a record's captured length whatever snapshot
	// length the file's header claims: libpcap's MAXIMUM_SNAPLEN.
	maxRecordLen = 262144
)

// Record is one captured packet.
type Record struct {
	// TsSec and TsUsec are the capture timestamp.
	TsSec, TsUsec uint32
	// Data is the frame, possibly truncated to the snap length.
	Data []byte
	// OrigLen is the original wire length.
	OrigLen uint32
}

// Writer emits a pcap stream.
type Writer struct {
	w       io.Writer
	snapLen uint32
	started bool
}

// NewWriter creates a Writer; the global header is emitted lazily on the
// first WriteRecord (or explicitly via WriteHeader).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, snapLen: DefaultSnapLen}
}

// WriteHeader writes the global header. Calling it twice is an error.
func (w *Writer) WriteHeader() error {
	if w.started {
		return fmt.Errorf("pcap: header already written")
	}
	w.started = true
	hdr := make([]byte, globalHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], MagicLE)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // minor
	binary.LittleEndian.PutUint32(hdr[16:], w.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	_, err := w.w.Write(hdr)
	return err
}

// WriteRecord appends one packet.
func (w *Writer) WriteRecord(r Record) error {
	if !w.started {
		if err := w.WriteHeader(); err != nil {
			return err
		}
	}
	data := r.Data
	if uint32(len(data)) > w.snapLen {
		data = data[:w.snapLen]
	}
	orig := r.OrigLen
	if orig == 0 {
		orig = uint32(len(r.Data))
	}
	hdr := make([]byte, recordHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], r.TsSec)
	binary.LittleEndian.PutUint32(hdr[4:], r.TsUsec)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:], orig)
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	_, err := w.w.Write(data)
	return err
}

// Reader consumes a pcap stream.
type Reader struct {
	r       io.Reader
	order   binary.ByteOrder
	snapLen uint32
}

// NewReader parses the global header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	hdr := make([]byte, globalHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	rd := &Reader{r: r}
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case MagicLE:
		rd.order = binary.LittleEndian
	case MagicBE:
		rd.order = binary.BigEndian
	default:
		return nil, fmt.Errorf("pcap: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	major := rd.order.Uint16(hdr[4:])
	if major != 2 {
		return nil, fmt.Errorf("pcap: unsupported version %d", major)
	}
	rd.snapLen = rd.order.Uint32(hdr[16:])
	return rd, nil
}

// Next returns the next record, or io.EOF at end of stream.
func (r *Reader) Next() (Record, error) {
	hdr := make([]byte, recordHeaderLen)
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcap: reading record header: %w", err)
	}
	rec := Record{
		TsSec:   r.order.Uint32(hdr[0:]),
		TsUsec:  r.order.Uint32(hdr[4:]),
		OrigLen: r.order.Uint32(hdr[12:]),
	}
	incl := r.order.Uint32(hdr[8:])
	if incl > maxRecordLen || uint64(incl) > uint64(r.snapLen)+65536 {
		return Record{}, fmt.Errorf("pcap: implausible record length %d", incl)
	}
	rec.Data = make([]byte, incl)
	if _, err := io.ReadFull(r.r, rec.Data); err != nil {
		return Record{}, fmt.Errorf("pcap: reading record body: %w", err)
	}
	return rec, nil
}

// ReadAll drains the stream into a slice.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
