package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/packet"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{TsSec: 1, TsUsec: 500, Data: []byte{1, 2, 3, 4}},
		{TsSec: 2, TsUsec: 0, Data: bytes.Repeat([]byte{0xab}, 1500)},
		{TsSec: 2, TsUsec: 999999, Data: nil},
	}
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	hdr := buf.Bytes()[:globalHeaderLen]
	if link, snap := binary.LittleEndian.Uint32(hdr[20:]), binary.LittleEndian.Uint32(hdr[16:]); link != LinkTypeEthernet || snap != DefaultSnapLen {
		t.Errorf("header: link=%d snap=%d", link, snap)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].TsSec != recs[i].TsSec || got[i].TsUsec != recs[i].TsUsec {
			t.Errorf("record %d timestamps %+v", i, got[i])
		}
		if !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Errorf("record %d data mismatch", i)
		}
		if got[i].OrigLen != uint32(len(recs[i].Data)) {
			t.Errorf("record %d origlen = %d", i, got[i].OrigLen)
		}
	}
}

func TestBigEndianFile(t *testing.T) {
	// Hand-build a big-endian capture with one 4-byte record.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:], MagicLE) // BE-written classic magic
	binary.BigEndian.PutUint16(hdr[4:], 2)
	binary.BigEndian.PutUint16(hdr[6:], 4)
	binary.BigEndian.PutUint32(hdr[16:], 65535)
	binary.BigEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:], 42)
	binary.BigEndian.PutUint32(rec[8:], 4)
	binary.BigEndian.PutUint32(rec[12:], 4)
	buf.Write(rec)
	buf.Write([]byte{9, 9, 9, 9})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.TsSec != 42 || len(got.Data) != 4 {
		t.Errorf("record %+v", got)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewBuffer(bytes.Repeat([]byte{0}, 24))
	if _, err := NewReader(buf); err == nil {
		t.Error("zero magic accepted")
	}
	short := bytes.NewBuffer([]byte{1, 2, 3})
	if _, err := NewReader(short); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestBadVersion(t *testing.T) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], MagicLE)
	binary.LittleEndian.PutUint16(hdr[4:], 9)
	if _, err := NewReader(bytes.NewBuffer(hdr)); err == nil {
		t.Error("version 9 accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(Record{Data: []byte{1, 2, 3, 4, 5}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated record read: %v", err)
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.snapLen = 8
	big := bytes.Repeat([]byte{7}, 100)
	if err := w.WriteRecord(Record{Data: big}); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 8 || rec.OrigLen != 100 {
		t.Errorf("snap truncation: got %d bytes orig %d", len(rec.Data), rec.OrigLen)
	}
}

func TestDoubleHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(); err == nil {
		t.Error("second WriteHeader succeeded")
	}
}

// TestAdversarialTracePipeline is the end-to-end substrate test: an
// adversarial trace is crafted into frames, written to pcap, read back,
// parsed, and the recovered classifier keys equal the originals — the full
// tsegen -> replay path.
func TestAdversarialTracePipeline(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	l := bitvec.IPv4Tuple
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{SkipAllowCombos: true})
	if err != nil {
		t.Fatal(err)
	}
	// Pin a realizable protocol in every header (UDP).
	proto, _ := l.FieldIndex("ip_proto")
	for _, h := range tr.Headers {
		h.SetField(l, proto, packet.ProtoUDP)
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, h := range tr.Headers {
		frame, err := packet.Craft(l, h, packet.CraftOptions{})
		if err != nil {
			t.Fatalf("craft %d: %v", i, err)
		}
		if err := w.WriteRecord(Record{TsSec: uint32(i / 100), Data: frame}); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != tr.Len() {
		t.Fatalf("read %d records, want %d", len(recs), tr.Len())
	}
	for i, rec := range recs {
		p, err := packet.Parse(rec.Data, packet.ParseOptions{VerifyChecksums: true})
		if err != nil {
			t.Fatalf("parse %d: %v", i, err)
		}
		key, err := p.FlowKey4()
		if err != nil {
			t.Fatal(err)
		}
		if !key.Equal(tr.Headers[i]) {
			t.Fatalf("record %d: key mismatch", i)
		}
	}
}
