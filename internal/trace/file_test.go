package trace_test

// These tests drive the on-disk trace format (internal/tracefile)
// through the trace.Reader interface the simulator consumes: a file is
// read record by record with trace.Collect, so header damage must fail
// at open and body damage at the first Next that reaches it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
)

// packableRecords returns n random records inside the packed encoding's
// field widths: PCs in the synthetic code window, addresses below 2^48
// sharing one page offset between VA and PA.
func packableRecords(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	for i := range recs {
		off := uint64(rng.Intn(memaddr.PageBytes))
		recs[i] = trace.Record{
			PC:      0x400000 + 4*uint64(rng.Intn(1<<18)),
			VA:      memaddr.VAddr(uint64(rng.Int63n(1<<36))<<memaddr.PageShift | off),
			PA:      memaddr.PAddr(uint64(rng.Int63n(1<<36))<<memaddr.PageShift | off),
			Gap:     uint16(rng.Intn(1 << 16)),
			DepDist: uint8(rng.Intn(256)),
			Flags:   uint8(rng.Intn(4)),
		}
	}
	return recs
}

// writeFile streams recs through tracefile.Writer and returns the bytes
// of the finished file.
func writeFile(t *testing.T, recs []trace.Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.sipt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := tracefile.NewWriter(f, tracefile.Meta{App: "mcf", Scenario: vm.ScenarioNormal, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != uint64(len(recs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCodecRoundTrip(t *testing.T) {
	// More than one chunk, so the reader crosses a chunk boundary.
	recs := packableRecords(tracefile.DefaultChunkRecords+1000, 11)
	fr, err := tracefile.NewReader(bytes.NewReader(writeFile(t, recs)))
	if err != nil {
		t.Fatal(err)
	}
	var r trace.Reader = fr
	got, err := trace.Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("round trip mismatch")
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next after the last record: %v, want io.EOF", err)
	}
}

// openErr opens data as a trace file and returns the open error, which
// must wrap tracefile.ErrFormat and mention want.
func openErr(t *testing.T, data []byte, want string) {
	t.Helper()
	_, err := tracefile.NewReader(bytes.NewReader(data))
	if !errors.Is(err, tracefile.ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func TestFileReaderBadMagic(t *testing.T) {
	data := writeFile(t, packableRecords(1, 1))
	data[0] = 'X'
	openErr(t, data, "magic")
}

func TestFileReaderBadVersion(t *testing.T) {
	data := writeFile(t, packableRecords(1, 1))
	binary.LittleEndian.PutUint16(data[8:], 0x7f)
	openErr(t, data, "version")
}

func TestFileReaderShortHeader(t *testing.T) {
	openErr(t, []byte("SI"), "header")
	data := writeFile(t, packableRecords(1, 1))
	openErr(t, data[:tracefile.HeaderSize-1], "header")
}

func TestFileReaderTruncatedRecord(t *testing.T) {
	data := writeFile(t, packableRecords(1, 1))
	data = data[:len(data)-3] // chop the last record
	fr, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); !errors.Is(err, tracefile.ErrFormat) {
		t.Errorf("truncated record: got %v, want ErrFormat", err)
	}
}
