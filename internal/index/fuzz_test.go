package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"rrq/internal/vec"
)

// loadBytes loads data as a checkpoint, checking the contract Load owes
// arbitrary bytes: a typed *PersistError, or an index that saves and
// loads back to the same epoch, dimension and size.
func loadBytes(t *testing.T, data []byte) {
	t.Helper()
	ix, err := Load(bytes.NewReader(data))
	if err != nil {
		var pe *PersistError
		if !errors.As(err, &pe) {
			t.Fatalf("Load failed with %v (%T), want *PersistError", err, err)
		}
		return
	}
	again, err := Load(bytes.NewReader(saved(t, ix)))
	if err != nil {
		t.Fatalf("loaded index does not reload from its own checkpoint: %v", err)
	}
	if again.Version() != ix.Version() || again.Dim() != ix.Dim() || again.Len() != ix.Len() {
		t.Fatalf("reload gives version %d dim %d len %d, want %d %d %d",
			again.Version(), again.Dim(), again.Len(), ix.Version(), ix.Dim(), ix.Len())
	}
}

// checkpointHeader is a current-format header declaring plen payload
// bytes with checksum crc.
func checkpointHeader(plen uint64, crc uint32) []byte {
	h := append([]byte(nil), persistMagic[:]...)
	h = binary.LittleEndian.AppendUint32(h, persistFormat)
	h = binary.LittleEndian.AppendUint32(h, crc)
	return binary.LittleEndian.AppendUint64(h, plen)
}

// FuzzCheckpointLoad loads arbitrary bytes as a checkpoint, and the same
// bytes as the payload of a well-formed header, so the payload decoder and
// revalidation see bytes the checksum cannot screen.
func FuzzCheckpointLoad(f *testing.F) {
	var buf bytes.Buffer
	ix, err := Build(fuzzSeedPoints, 3, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(good[persistHeaderLen:])
	flipped := bytes.Clone(good)
	flipped[persistHeaderLen+9] ^= 0x40
	f.Add(flipped)
	f.Add(append(checkpointHeader(1<<32, 0), 1, 2, 3)) // declares 4 GiB
	f.Fuzz(func(t *testing.T, data []byte) {
		loadBytes(t, data)
		loadBytes(t, append(checkpointHeader(uint64(len(data)), crc32.Checksum(data, persistCRC)), data...))
	})
}

var fuzzSeedPoints = []vec.Vec{{0.9, 0.2, 0.3}, {0.4, 0.8, 0.1}, {0.2, 0.3, 0.9}}

// A header may declare up to 4 GiB of payload; a stream that ends long
// before must be rejected as truncated without allocating the declared
// length.
func TestLoadDeclaredLengthAllocatesWhatArrives(t *testing.T) {
	data := append(checkpointHeader(1<<32, 0), make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	wantPersistError(t, err, PersistTruncated)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a 100-byte payload allocated %d bytes", grew)
	}
}
