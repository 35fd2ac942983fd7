package pagestore

import (
	"errors"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// setKernel forces the CRC fold kernel on or off for the rest of the test,
// skipping when "on" is asked of a CPU (or architecture) without it.
func setKernel(t testing.TB, on bool) {
	t.Helper()
	if on && !kernelSupported() {
		t.Skip("CRC fold kernel not supported here")
	}
	old := crcKernel
	crcKernel = on
	t.Cleanup(func() { crcKernel = old })
}

// kernelModes names the two checksum paths.
var kernelModes = []struct {
	name string
	on   bool
}{{"kernel", true}, {"stdlib", false}}

// TestChecksumMatchesStdlib: checksum equals crc64.Checksum for every length
// 0..9000 over random, all-zero and all-0xFF contents, on unaligned
// subslices, on the superblock's checksummed span, and on the CRC-64/XZ
// check value — with the kernel on and forced off.
func TestChecksumMatchesStdlib(t *testing.T) {
	const maxLen = 9000
	rng := rand.New(rand.NewSource(15))
	random := make([]byte, maxLen+16)
	rng.Read(random)
	ones := make([]byte, maxLen+16)
	for i := range ones {
		ones[i] = 0xFF
	}
	fills := []struct {
		name string
		buf  []byte
	}{{"random", random}, {"zero", make([]byte, maxLen+16)}, {"ones", ones}}

	for _, m := range kernelModes {
		t.Run(m.name, func(t *testing.T) {
			setKernel(t, m.on)
			check := func(label string, p []byte) {
				t.Helper()
				if got, want := checksum(p), crc64.Checksum(p, crcTable); got != want {
					t.Fatalf("%s (len %d): checksum %#x, crc64 %#x", label, len(p), got, want)
				}
			}
			for _, f := range fills {
				for n := 0; n <= maxLen; n++ {
					check(f.name, f.buf[:n])
				}
				for off := 1; off < 16; off++ {
					for _, n := range []int{63, 64, 65, 80, 127, 128, 4095, 4096, 4097, maxLen - 1} {
						check(f.name+" unaligned", f.buf[off:off+n])
					}
				}
				check(f.name+" superblock span", f.buf[:superBytes-8])
			}
			if got := checksum([]byte("123456789")); got != 0x995dc9bbdf1939fa {
				t.Fatalf("check value %#x, want 0x995dc9bbdf1939fa", got)
			}
		})
	}
}

// flipFileBit XORs one bit of the file at path.
func flipFileBit(t *testing.T, path string, off int64, bit uint) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1 << bit
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumFileCompat: a page file written with the kernel off opens and
// verifies with it on, and the reverse; in that file a single-bit flip at
// sampled frame offsets is detected on read either way.
func TestChecksumFileCompat(t *testing.T) {
	if !kernelSupported() {
		t.Skip("CRC fold kernel not supported here")
	}
	s := paginatedStore(t, 200, 8)
	offsets := []int64{0, 1, 7, 8, 15, 16, 63, 64, 65, 1000, 2047, 2048, 4080, 4088, frameBytes - 1}
	for _, w := range kernelModes {
		for _, r := range kernelModes {
			if w.on == r.on {
				continue
			}
			t.Run(w.name+"-writes/"+r.name+"-reads", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "compat.pages")
				t.Run("write", func(t *testing.T) {
					setKernel(t, w.on)
					fs, err := CreateFileStore(path, s, FileStoreConfig{Mode: ChecksumVerify})
					if err != nil {
						t.Fatal(err)
					}
					if err := fs.Close(); err != nil {
						t.Fatal(err)
					}
				})
				setKernel(t, r.on)
				fs, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumVerify})
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				if err := fs.VerifyAgainst(s); err != nil {
					t.Fatal(err)
				}
				for i, off := range offsets {
					p := PageID(i % fs.NumPages())
					at := fs.frameOff(fs.slotOf[p]) + off
					bit := uint(i % 8)
					flipFileBit(t, path, at, bit)
					var cpe *CorruptPageError
					if _, _, err := fs.ReadPage(p, nil); !errors.As(err, &cpe) {
						t.Fatalf("bit %d flipped at frame offset %d of page %d: read err %v, want *CorruptPageError", bit, off, p, err)
					}
					flipFileBit(t, path, at, bit)
					if _, _, err := fs.ReadPage(p, nil); err != nil {
						t.Fatalf("restored page %d: %v", p, err)
					}
				}
			})
		}
	}
}

// FuzzChecksum: checksum equals hash/crc64 on arbitrary input, with the
// kernel on (when supported) and forced off.
func FuzzChecksum(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		want := crc64.Checksum(p, crcTable)
		for _, m := range kernelModes {
			if m.on && !kernelSupported() {
				continue
			}
			old := crcKernel
			crcKernel = m.on
			got := checksum(p)
			crcKernel = old
			if got != want {
				t.Fatalf("%s: checksum %#x, crc64 %#x (len %d)", m.name, got, want, len(p))
			}
		}
	})
}

var checksumSink uint64

// BenchmarkChecksum times one 4 KB frame, the unit every page read
// verifies, through the kernel and through the stdlib.
func BenchmarkChecksum(b *testing.B) {
	frame := make([]byte, frameBytes)
	rand.New(rand.NewSource(1)).Read(frame)
	for _, m := range kernelModes {
		b.Run(m.name, func(b *testing.B) {
			setKernel(b, m.on)
			b.SetBytes(frameBytes)
			for i := 0; i < b.N; i++ {
				checksumSink = checksum(frame)
			}
		})
	}
}
