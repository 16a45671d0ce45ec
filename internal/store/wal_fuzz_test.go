package store

// Native fuzz coverage for the WAL record framing (length + CRC32). The
// decoder's contract under arbitrary corruption: never panic, never accept
// a mutated frame as valid, always stop at a well-defined prefix — every
// event it does return must byte-for-byte re-encode to the file content at
// its recorded offset, and truncating the file at goodEnd must yield the
// same events with a clean (nil) stop reason.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/adaudit/impliedidentity/internal/platform"
)

// validSegment builds a well-formed segment of n records.
func validSegment(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		rec := walRecord{
			Version: walRecordVersion,
			Seq:     uint64(i + 1),
			Mut: platform.Mutation{
				Kind:   platform.MutCampaignCreated,
				NextID: i + 1,
				Campaign: &platform.Campaign{
					ID:   fmt.Sprintf("cmp-%d", i+1),
					Name: fmt.Sprintf("fuzz seed %d", i),
				},
			},
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			tb.Fatal(err)
		}
		if err := writeFrame(&buf, payload); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// decodeSegmentBytes writes data to a temp file and runs readSegment on it.
func decodeSegmentBytes(tb testing.TB, dir string, data []byte) ([]segmentEvent, int64, error) {
	tb.Helper()
	path := filepath.Join(dir, "fuzz.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	events, goodEnd, stop, err := readSegment(path)
	if err != nil {
		tb.Fatalf("readSegment I/O error: %v", err)
	}
	return events, goodEnd, stop
}

func FuzzWALSegmentDecode(f *testing.F) {
	// Seed corpus: clean segments, a torn tail, flipped bytes in the header
	// and payload, truncations, and garbage.
	clean := validSegment(f, 3)
	f.Add(clean)
	f.Add(validSegment(f, 1))
	f.Add([]byte{})
	f.Add(clean[:len(clean)-3])                // torn final frame
	f.Add(clean[:frameHeaderSize-2])           // torn header
	f.Add(append([]byte("garbage"), clean...)) // misaligned stream
	flip := append([]byte(nil), clean...)
	flip[5] ^= 0xff // CRC byte of the first frame
	f.Add(flip)
	flip2 := append([]byte(nil), clean...)
	flip2[frameHeaderSize] ^= 0x01 // first payload byte
	f.Add(flip2)
	long := append([]byte(nil), clean...)
	long[0], long[1], long[2], long[3] = 0xff, 0xff, 0xff, 0xff // absurd length
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		events, goodEnd, stop := decodeSegmentBytes(t, dir, data)

		// goodEnd is a prefix boundary of the input.
		if goodEnd < 0 || goodEnd > int64(len(data)) {
			t.Fatalf("goodEnd %d outside [0, %d]", goodEnd, len(data))
		}
		if stop == nil && goodEnd != int64(len(data)) {
			t.Fatalf("clean stop but goodEnd %d != len %d", goodEnd, len(data))
		}

		// Every accepted event must round-trip: the frame at its offset must
		// carry a payload that re-parses to the same record, and the framing
		// inside [0, goodEnd) must be exactly the accepted events. Re-reading
		// the good prefix through the same decoder must therefore reproduce
		// them with a clean stop — corruption never leaks into the prefix.
		prefix, prefixEnd, prefixStop := decodeSegmentBytes(t, dir, data[:goodEnd])
		if prefixStop != nil {
			t.Fatalf("re-reading the accepted prefix stopped again: %v", prefixStop)
		}
		if prefixEnd != goodEnd {
			t.Fatalf("prefix re-read ended at %d, want %d", prefixEnd, goodEnd)
		}
		if len(prefix) != len(events) {
			t.Fatalf("prefix re-read found %d events, first read %d", len(prefix), len(events))
		}
		for i := range events {
			if events[i].offset != prefix[i].offset ||
				events[i].rec.Seq != prefix[i].rec.Seq ||
				events[i].rec.Version != prefix[i].rec.Version ||
				events[i].rec.Mut.Kind != prefix[i].rec.Mut.Kind {
				t.Fatalf("event %d changed across re-read: %+v vs %+v", i, events[i], prefix[i])
			}
		}

		// Accepted frames must actually verify: replay the raw framing and
		// confirm each accepted offset starts a checksum-valid frame. This
		// catches a decoder that "accepts" bytes the framing rejects.
		r := bufio.NewReader(bytes.NewReader(data[:goodEnd]))
		for i := 0; ; i++ {
			payload, err := readFrame(r)
			if err == io.EOF {
				if i != len(events) {
					t.Fatalf("raw framing holds %d frames, decoder accepted %d", i, len(events))
				}
				break
			}
			if err != nil {
				t.Fatalf("raw framing rejected accepted prefix at frame %d: %v", i, err)
			}
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatalf("accepted frame %d holds undecodable payload: %v", i, err)
			}
			if rec.Version < minWALRecordVersion || rec.Version > walRecordVersion {
				t.Fatalf("accepted frame %d has version %d", i, rec.Version)
			}
		}
	})
}

// TestWALSegmentDecodeMutations deterministically sweeps single-byte
// corruptions of a valid segment through the fuzz target's oracle, so the
// mutation coverage runs in ordinary `go test` even without a fuzzing
// session.
func TestWALSegmentDecodeMutations(t *testing.T) {
	clean := validSegment(t, 3)
	dir := t.TempDir()

	baseline, baseEnd, baseStop := decodeSegmentBytes(t, dir, clean)
	if baseStop != nil || baseEnd != int64(len(clean)) || len(baseline) != 3 {
		t.Fatalf("clean segment: events %d, end %d, stop %v", len(baseline), baseEnd, baseStop)
	}

	for pos := 0; pos < len(clean); pos++ {
		mutated := append([]byte(nil), clean...)
		mutated[pos] ^= 0x5a
		events, goodEnd, stop := decodeSegmentBytes(t, dir, mutated)
		// A single flipped byte damages exactly one frame: everything before
		// it must decode, nothing at or after it may.
		if goodEnd > int64(pos) {
			t.Fatalf("flip at %d: goodEnd %d reaches past the damaged byte", pos, goodEnd)
		}
		if stop == nil {
			t.Fatalf("flip at %d: decoder reported a clean segment", pos)
		}
		for _, ev := range events {
			if ev.offset >= int64(pos) {
				t.Fatalf("flip at %d: accepted event at offset %d past the damage", pos, ev.offset)
			}
		}
	}
	// Truncations: every prefix must decode without panicking, with goodEnd
	// at a frame boundary no further than the cut.
	for cut := 0; cut <= len(clean); cut++ {
		_, goodEnd, _ := decodeSegmentBytes(t, dir, clean[:cut])
		if goodEnd > int64(cut) {
			t.Fatalf("cut at %d: goodEnd %d past the cut", cut, goodEnd)
		}
	}
}
