package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenFileStore: OpenFileStore over a mutated and truncated copy of a
// small valid page file and its replica never panics. It either fails with
// an error or returns a store that, after one full scrub, passes
// VerifyAgainst or reports a typed *CorruptPageError — never wrong bytes as
// a plain mismatch. An untouched primary always opens and verifies.
//
// edits is a list of 4-byte records: byte 0's low bit picks the file
// (primary, replica), bytes 1–2 are a little-endian offset (taken modulo the
// file size) and byte 3 is XORed in there. cutPrimary and cutReplica drop
// that many bytes (modulo size+1) off each file's end; flags bit 0 opens
// without the replica.
func FuzzOpenFileStore(f *testing.F) {
	s := paginatedStore(f, 20, 8)
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.pages")
	seed, err := CreateFileStore(seedPath, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		f.Fatal(err)
	}
	primary, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	replica, err := os.ReadFile(seedPath + replicaSuffix)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, edits []byte, cutPrimary, cutReplica uint16, flags byte) {
		files := [2][]byte{bytes.Clone(primary), bytes.Clone(replica)}
		for ; len(edits) >= 4; edits = edits[4:] {
			img := files[edits[0]&1]
			img[int(binary.LittleEndian.Uint16(edits[1:3]))%len(img)] ^= edits[3]
		}
		files[0] = files[0][:len(files[0])-int(cutPrimary)%(len(files[0])+1)]
		files[1] = files[1][:len(files[1])-int(cutReplica)%(len(files[1])+1)]
		intact := bytes.Equal(files[0], primary)

		// Inputs run one at a time per process, so one path is reused.
		path := filepath.Join(dir, "fuzz.pages")
		if err := os.WriteFile(path, files[0], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+replicaSuffix, files[1], 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumRepair, Replica: flags&1 == 0})
		if err != nil {
			if intact {
				t.Fatalf("untouched primary failed to open: %v", err)
			}
			return
		}
		defer fs.Close()
		fs.Scrub(fs.NumPages(), nil)
		err = fs.VerifyAgainst(s)
		var cpe *CorruptPageError
		if err != nil && (intact || !errors.As(err, &cpe)) {
			t.Fatalf("VerifyAgainst after open and scrub (primary intact: %v): %v", intact, err)
		}
	})
}
