package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// replayBytes writes data as the log's only segment and replays it,
// checking the contract Replay owes arbitrary bytes on disk: no error (a
// corrupt record is a repair, not a failure), every record delivered
// re-encodes to exactly the segment's leading bytes, and the segment is
// left holding exactly those bytes — cut at the reported offset when a
// corrupt record ended the replay, whole otherwise.
func replayBytes(t *testing.T, data []byte) {
	t.Helper()
	dir := t.TempDir()
	seg := filepath.Join(dir, segName(1))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var prefix []byte
	info, err := Replay(dir, Options{}, func(r Record) error {
		prefix = append(prefix, Encode(r)...)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay of %d bytes failed: %v", len(data), err)
	}
	if !bytes.HasPrefix(data, prefix) {
		t.Fatalf("replayed %d records that do not re-encode to the segment's leading bytes", info.Records)
	}
	switch {
	case info.Truncated == nil && len(prefix) != len(data):
		t.Fatalf("replay kept %d of %d bytes without reporting a truncation", len(prefix), len(data))
	case info.Truncated != nil && info.Truncated.Offset != int64(len(prefix)):
		t.Fatalf("truncated at %d, but the sound records end at %d", info.Truncated.Offset, len(prefix))
	}
	left, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(left, prefix) {
		t.Fatalf("segment holds %d bytes after replay, want the %d sound ones", len(left), len(prefix))
	}
}

// frame wraps payload in a record header with its true length and
// checksum, so the payload decoder sees bytes the checksum cannot screen.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// FuzzWALReplay replays arbitrary bytes as a segment, and the same bytes
// framed as one checksummed record after a sound one.
func FuzzWALReplay(f *testing.F) {
	var sound []byte
	for _, r := range testRecords() {
		sound = append(sound, Encode(r)...)
	}
	f.Add(sound)
	f.Add(sound[:len(sound)-3])                                               // torn tail
	f.Add(append(bytes.Clone(sound[:20]), 0xff, 0xff))                        // torn header
	f.Add(Encode(Record{Epoch: 7, Op: OpInsert})[8:])                         // zero-dim insert payload
	f.Add([]byte{byte(OpInsert), 2, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255}) // dim 2^32−1
	flipped := bytes.Clone(sound)
	flipped[30] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		replayBytes(t, data)
		if len(data) > 0 && len(data) <= maxPayload {
			first := Encode(Record{Epoch: 1, Op: OpDelete, Index: 0})
			replayBytes(t, append(first, frame(data)...))
		}
	})
}
