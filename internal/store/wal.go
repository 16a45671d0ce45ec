package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/adaudit/impliedidentity/internal/platform"
)

// On-disk record framing, shared by WAL segments and snapshot files:
//
//	| uint32 payload length | uint32 CRC32(payload) | payload bytes |
//
// both integers little-endian, CRC32 over the IEEE polynomial. The frame is
// deliberately minimal: length bounds the read, the checksum catches bit
// rot, and a short read anywhere inside a frame is a torn tail. Versioning
// lives inside the payloads (walRecord / snapshotFile carry explicit version
// fields), so the frame layout itself never needs to change for a schema
// bump.

// frameHeaderSize is the fixed prefix of every record.
const frameHeaderSize = 8

// maxRecordBytes caps one record's payload. Nothing legitimate approaches
// it; a length beyond it is read as corruption, not as an allocation demand.
const maxRecordBytes = 64 << 20

// Frame-read failure classes. Both mean "stop replaying here"; they are
// distinguished so recovery can report what it found.
var (
	// errTornRecord is a frame cut short by a crash mid-write.
	errTornRecord = errors.New("store: torn record (short frame)")
	// errCorruptRecord is a complete frame whose content fails validation.
	errCorruptRecord = errors.New("store: corrupt record")
)

// frameHeader returns the length+CRC32 prefix of payload's frame.
func frameHeader(payload []byte) [frameHeaderSize]byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return hdr
}

// writeFrame writes one framed payload to w.
func writeFrame(w io.Writer, payload []byte) error {
	hdr := frameHeader(payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// appendFrame appends one framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	hdr := frameHeader(payload)
	return append(append(dst, hdr[:]...), payload...)
}

// readFrame reads one framed payload. io.EOF exactly at a frame boundary is
// a clean end; a partial header or partial payload is errTornRecord; a bad
// length or checksum mismatch is errCorruptRecord.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTornRecord
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecordBytes {
		return nil, fmt.Errorf("%w: length %d exceeds %d", errCorruptRecord, n, maxRecordBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornRecord
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errCorruptRecord)
	}
	return payload, nil
}

// walRecordVersion tags the WAL payload schema. Bump it when Mutation's
// layout changes incompatibly; replay rejects versions it does not know.
// Version 2 dropped the targeted-user list from ad_created (see
// platform.StateVersion); a version-1 record still decodes, its embedded list
// an unknown field the platform derives again, so minWALRecordVersion stays 1.
const (
	walRecordVersion    = 2
	minWALRecordVersion = 1
)

// walRecord is one WAL entry: a monotonically increasing sequence number
// wrapping one platform mutation.
type walRecord struct {
	Version int               `json:"v"`
	Seq     uint64            `json:"seq"`
	Mut     platform.Mutation `json:"mut"`
}

// File-name layout inside the store directory.
const (
	walPrefix  = "wal-"
	walSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

// walName returns the segment file name for a starting sequence number. The
// zero-padded hex key makes lexical order equal numeric order.
func walName(startSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", walPrefix, startSeq, walSuffix)
}

// snapName returns the snapshot file name for the sequence it covers.
func snapName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

// parseSeqName extracts the hex sequence from a "<prefix><hex16><suffix>"
// file name, reporting ok=false for anything else.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// dirListing is the classified content of a store directory.
type dirListing struct {
	segments  []uint64 // WAL segment start sequences, ascending
	snapshots []uint64 // snapshot cover sequences, ascending
}

// scanDir classifies the store directory, deleting leftover temp files from
// an interrupted snapshot write (they were never durable).
func scanDir(dir string) (*dirListing, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &dirListing{}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSeqName(name, walPrefix, walSuffix); ok {
			l.segments = append(l.segments, seq)
			continue
		}
		if seq, ok := parseSeqName(name, snapPrefix, snapSuffix); ok {
			l.snapshots = append(l.snapshots, seq)
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i] < l.segments[j] })
	sort.Slice(l.snapshots, func(i, j int) bool { return l.snapshots[i] < l.snapshots[j] })
	return l, nil
}

// segmentEvent is one decoded WAL record plus where its frame started, so a
// truncation can cut exactly before it.
type segmentEvent struct {
	rec    walRecord
	offset int64
}

// readSegment decodes a WAL segment. It returns the events that parsed
// cleanly, the offset just past the last good frame, and the reason reading
// stopped: nil at a clean EOF, or the torn/corrupt error. A stop reason is
// not a failure of the read — recovery truncates there.
func readSegment(path string) (events []segmentEvent, goodEnd int64, stop error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var offset int64
	for {
		payload, ferr := readFrame(r)
		if ferr == io.EOF {
			return events, offset, nil, nil
		}
		if ferr != nil {
			return events, offset, ferr, nil
		}
		var rec walRecord
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			return events, offset, fmt.Errorf("%w: undecodable payload: %v", errCorruptRecord, jerr), nil
		}
		if rec.Version < minWALRecordVersion || rec.Version > walRecordVersion {
			return events, offset, fmt.Errorf("%w: record version %d, this build reads %d to %d",
				errCorruptRecord, rec.Version, minWALRecordVersion, walRecordVersion), nil
		}
		events = append(events, segmentEvent{rec: rec, offset: offset})
		offset += frameHeaderSize + int64(len(payload))
	}
}

// syncDir fsyncs a directory so a rename inside it is durable. Best effort:
// some filesystems reject directory fsync, and losing the rename just means
// recovering from the previous snapshot.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		//adlint:allow walerr (best-effort by contract: some filesystems reject directory fsync)
		_ = d.Sync()
		_ = d.Close()
	}
}
