package pcap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReader feeds arbitrary byte streams to the reader: every outcome
// must be a clean error or a well-formed record, never a panic or an
// unbounded allocation. The seed corpus holds a valid three-record
// capture and 2000 seeded random streams, half of them behind a valid
// global header so record parsing is actually reached.
//
//	go test -run '^$' -fuzz '^FuzzReader$' -fuzztime 20s ./internal/pcap
func FuzzReader(f *testing.F) {
	var valid bytes.Buffer
	w := NewWriter(&valid)
	for _, data := range [][]byte{{1, 2, 3, 4}, bytes.Repeat([]byte{0xab}, 60), nil} {
		if err := w.WriteRecord(Record{TsSec: 1, Data: data}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid.Bytes())
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(200)
		data := make([]byte, n)
		rng.Read(data)
		if n >= 24 && trial%2 == 0 {
			binary.LittleEndian.PutUint32(data[0:], MagicLE)
			binary.LittleEndian.PutUint16(data[4:], 2)
			binary.LittleEndian.PutUint32(data[16:], DefaultSnapLen)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 10; i++ {
			if _, err := r.Next(); err != nil {
				break
			}
		}
	})
}

// TestReaderBoundsRecordAllocation rejects implausible record lengths
// instead of allocating them.
func TestReaderBoundsRecordAllocation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:], 0xffffffff) // 4 GiB claim
	buf.Write(rec)
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("4 GiB record length accepted")
	}

	// A header claiming a 2 GiB snapshot length does not license a 2 GiB
	// record.
	hdr := make([]byte, globalHeaderLen+recordHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], MagicLE)
	binary.LittleEndian.PutUint16(hdr[4:], 2)
	binary.LittleEndian.PutUint32(hdr[16:], 0x7fffffff)
	binary.LittleEndian.PutUint32(hdr[globalHeaderLen+8:], 0x7fffffff)
	if r, err = NewReader(bytes.NewReader(hdr)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("2 GiB record under a 2 GiB snapshot length: err = %v, want implausible length", err)
	}
}
