//go:build !amd64

package pagestore

// kernelSupported is false off amd64: checksum always takes the stdlib path.
func kernelSupported() bool { return false }

// foldBlocks is never called off amd64 (crcKernel is false there).
func foldBlocks(r *[16]byte, p []byte, k *[4]uint64) {
	panic("pagestore: no CRC fold kernel on this architecture")
}
