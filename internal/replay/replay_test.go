package replay_test

import (
	"errors"
	"io"
	"testing"

	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// genRecords produces the live generator's record stream for an app,
// exactly as sim.RunApp would consume it.
func genRecords(t *testing.T, app string, sc vm.Scenario, seed int64, records uint64) []trace.Record {
	t.Helper()
	prof, err := workload.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(sc, seed, prof)
	gen, err := workload.NewGenerator(prof, sys, seed, records)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestRoundTrip asserts the packed encoding is lossless for real
// generator output: materialise, decode, compare field-for-field.
func TestRoundTrip(t *testing.T) {
	for _, app := range []string{"libquantum", "ycsb"} {
		for _, sc := range vm.Scenarios() {
			want := genRecords(t, app, sc, 1, 10_000)
			prof, err := workload.Lookup(app)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := sim.Materialize(prof, sc, 1, 10_000)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, sc, err)
			}
			if buf.Len() != len(want) {
				t.Fatalf("%s/%s: %d records materialised, want %d", app, sc, buf.Len(), len(want))
			}
			cur := buf.Cursor()
			for i, w := range want {
				got, err := cur.Next()
				if err != nil {
					t.Fatalf("%s/%s record %d: %v", app, sc, i, err)
				}
				if got != w {
					t.Fatalf("%s/%s record %d: got %+v want %+v", app, sc, i, got, w)
				}
			}
			if _, err := cur.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("%s/%s: expected EOF, got %v", app, sc, err)
			}
		}
	}
}

// TestCursorReset asserts Reset replays the identical records.
func TestCursorReset(t *testing.T) {
	prof, err := workload.Lookup("gcc")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sim.Materialize(prof, vm.ScenarioNormal, 7, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	cur := buf.Cursor()
	first, err := trace.Collect(cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur.Reset()
	second, err := trace.Collect(cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("reset changed length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d differs after reset", i)
		}
	}
}

// TestUnpackable asserts out-of-range records are rejected with
// ErrUnpackable rather than silently truncated.
func TestUnpackable(t *testing.T) {
	cases := []trace.Record{
		{PC: 0x100, VA: 0x1000, PA: 0x2000},                   // PC below the synthetic window
		{PC: 0x400002, VA: 0x1000, PA: 0x2000},                // misaligned PC
		{PC: 0x400000 + 4<<18, VA: 0x1000, PA: 0x2000},        // PC index overflow
		{PC: 0x400000, VA: 1 << 48, PA: 0x2000},               // VA beyond 48 bits
		{PC: 0x400000, VA: 0x1000, PA: 1 << 48},               // PA beyond 48 bits
		{PC: 0x400000, VA: 0x1000, PA: 0x2000, Flags: 1 << 5}, // undefined flag bit
	}
	for i, rec := range cases {
		var b replay.Buffer
		if err := b.Append(&rec); !errors.Is(err, replay.ErrUnpackable) {
			t.Errorf("case %d: got %v, want ErrUnpackable", i, err)
		}
	}
	// A maximal in-range record survives.
	// Offsets agree (both 0xfff), as translation guarantees.
	ok := trace.Record{
		PC: 0x400000 + 4*(1<<18-1), VA: 1<<48 - 1, PA: 1<<48 - 1,
		Gap: 0xffff, DepDist: 0xff, Flags: trace.FlagStore | trace.FlagHuge,
	}
	var b replay.Buffer
	if err := b.Append(&ok); err != nil {
		t.Fatalf("maximal record rejected: %v", err)
	}
	got, err := b.Cursor().Next()
	if err != nil {
		t.Fatal(err)
	}
	if got != ok {
		t.Fatalf("maximal record round-trip: got %+v want %+v", got, ok)
	}
}

// TestWordsRoundTrip asserts the word-level serialisation surface:
// Buffer -> Words -> BufferFromWords replays identical records, and odd
// word counts are rejected.
func TestWordsRoundTrip(t *testing.T) {
	prof, err := workload.Lookup("h264ref")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sim.Materialize(prof, vm.ScenarioFragmented, 3, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := replay.BufferFromWords(buf.Words())
	if err != nil {
		t.Fatal(err)
	}
	if clone.Len() != buf.Len() || clone.Bytes() != buf.Bytes() {
		t.Fatalf("clone shape %d/%d, want %d/%d", clone.Len(), clone.Bytes(), buf.Len(), buf.Bytes())
	}
	a, b := buf.Cursor(), clone.Cursor()
	for i := 0; i < buf.Len(); i++ {
		ra, erra := a.Next()
		rb, errb := b.Next()
		if erra != nil || errb != nil {
			t.Fatalf("record %d: %v / %v", i, erra, errb)
		}
		if ra != rb {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
	if _, err := replay.BufferFromWords(make([]uint64, 3)); err == nil {
		t.Fatal("odd word count accepted")
	}
}

// TestPackUnpackRecord asserts the exported pack/unpack pair is the
// same bijection Append/Cursor use.
func TestPackUnpackRecord(t *testing.T) {
	in := trace.Record{
		PC: 0x400000 + 4*12345, VA: 0x7f00deadb000 | 0x321, PA: 0x1234567000 | 0x321,
		Gap: 77, DepDist: 9, Flags: trace.FlagStore,
	}
	w0, w1, err := replay.PackRecord(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out trace.Record
	replay.UnpackRecord(w0, w1, &out)
	if out != in {
		t.Fatalf("round-trip: got %+v want %+v", out, in)
	}
	bad := trace.Record{PC: 0x100}
	if _, _, err := replay.PackRecord(&bad); !errors.Is(err, replay.ErrUnpackable) {
		t.Fatalf("got %v, want ErrUnpackable", err)
	}
}
