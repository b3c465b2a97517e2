package trace

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tse/internal/bitvec"
)

// FuzzReader feeds arbitrary byte images to the reader (the trace-format
// twin of internal/pcap's FuzzReader): every outcome must be a clean
// error or well-formed records, never a panic or an out-of-bounds
// decode. The seed corpus holds the committed golden trace and 2000
// seeded random images, half of them behind a valid magic so header and
// record parsing are actually reached.
//
//	go test -run '^$' -fuzz '^FuzzReader$' -fuzztime 20s ./internal/trace
func FuzzReader(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_victim_mix.trace"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(400)
		data := make([]byte, n)
		rng.Read(data)
		if n >= headerFixedLen && trial%2 == 0 {
			copy(data, magic)
			// Small plausible-ish words/layout lengths half of those
			// trials, fully random the other half.
			if trial%4 == 0 {
				binary.LittleEndian.PutUint32(data[8:], uint32(1+rng.Intn(8)))
				binary.LittleEndian.PutUint32(data[12:], uint32(1+rng.Intn(64)))
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		b := NewBatch(r.Words(), 16)
		for i := 0; i < 10; i++ {
			if r.Next(b) == 0 {
				break
			}
		}
	})
}

// TestReaderRejectsCorruptHeaders spot-checks each header validation:
// truncation, bad magic, implausible key width, implausible layout
// length, and a record count past the end of the file.
func TestReaderRejectsCorruptHeaders(t *testing.T) {
	var buf Buffer
	w, err := NewWriter(&buf, bitvec.IPv4Tuple)
	if err != nil {
		t.Fatal(err)
	}
	if err := Synthesize(w, GoldenOptions()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := NewReader(good); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}

	corrupt := func(name string, mutate func(d []byte) []byte) {
		d := append([]byte(nil), good...)
		d = mutate(d)
		if _, err := NewReader(d); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	corrupt("truncated header", func(d []byte) []byte { return d[:headerFixedLen-1] })
	corrupt("bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d })
	corrupt("zero key width", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[8:], 0)
		return d
	})
	corrupt("absurd key width", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[8:], 1<<20)
		return d
	})
	corrupt("absurd layout length", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[12:], 1<<20)
		return d
	})
	corrupt("count past EOF", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[countOffset:], 1<<40)
		return d
	})
	corrupt("truncated record region", func(d []byte) []byte { return d[:len(d)-8] })
}
