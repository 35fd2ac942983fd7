package pagestore

import (
	"hash/crc64"
	"math/bits"
)

// crcTable is the CRC64-ECMA table every checksum in the file format uses.
var crcTable = crc64.MakeTable(crc64.ECMA)

// crcKernel selects the carry-less-multiply fold (crc_amd64.s) for inputs of
// at least 64 bytes. It is set once from CPUID (false on other
// architectures); tests clear it to run the stdlib path over the same files.
var crcKernel = kernelSupported()

// foldK holds the fold constants the kernel loads: the d = 512 pair of the
// four-lane loop, then the d = 128 pair of the final folds (see foldPair).
var foldK = func() [4]uint64 {
	lo512, hi512 := foldPair(512)
	lo128, hi128 := foldPair(128)
	return [4]uint64{lo512, hi512, lo128, hi128}
}()

// checksum is the CRC-64/ECMA of p, exactly crc64.Checksum(p, crcTable) —
// the value every superblock, header entry and frame check in the file
// format stores and compares.
//
// With the kernel on, the assembly folds p's whole 16-byte blocks into a
// 128-bit remainder congruent to them modulo the polynomial, with the
// all-ones initial register XORed into the first 8 bytes. The remainder is
// then a 16-byte message with the same CRC under a zero register, so
// crc64.Update from register zero (passed inverted, as Update inverts on
// entry) over the remainder and then over the tail finishes the sum with the
// stdlib's own table and final XOR.
func checksum(p []byte) uint64 {
	if !crcKernel || len(p) < 64 {
		return crc64.Checksum(p, crcTable)
	}
	n := len(p) &^ 15
	var r [16]byte
	foldBlocks(&r, p[:n], &foldK)
	return crc64.Update(crc64.Update(^uint64(0), crcTable, r[:]), crcTable, p[n:])
}

// foldPair returns the PCLMULQDQ multipliers that carry a 128-bit block d
// bits forward. The block's low qword holds the higher-degree coefficients
// (bit-reflected order), so it is multiplied by x^(d+64) mod P and the high
// qword by x^d mod P; a reflected carry-less product is the true product
// times x, hence the exponents one lower. Constants are bit-reversed into
// the reflected domain.
func foldPair(d int) (lo, hi uint64) {
	return bits.Reverse64(xPowMod(d + 63)), bits.Reverse64(xPowMod(d - 1))
}

// xPowMod returns x^n mod P in normal (unreflected) bit order, P being
// CRC-64/ECMA's polynomial with its implicit x^64 term.
func xPowMod(n int) uint64 {
	poly := bits.Reverse64(crc64.ECMA)
	v := uint64(1)
	for i := 0; i < n; i++ {
		if v&(1<<63) != 0 {
			v = v<<1 ^ poly
		} else {
			v <<= 1
		}
	}
	return v
}
