package pagestore

// foldBlocks folds p (len a multiple of 16, at least 64) into the 128-bit
// remainder r, XORing the all-ones initial register into p's first 8 bytes;
// k is foldK. Implemented in crc_amd64.s.
//
//go:noescape
func foldBlocks(r *[16]byte, p []byte, k *[4]uint64)

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// kernelSupported reports PCLMULQDQ (ECX bit 1) and SSE4.1 (ECX bit 19),
// the same pair hash/crc32 gates its carry-less-multiply kernel on.
func kernelSupported() bool {
	const pclmulqdq, sse41 = 1 << 1, 1 << 19
	ecx := cpuid1ECX()
	return ecx&pclmulqdq != 0 && ecx&sse41 != 0
}
