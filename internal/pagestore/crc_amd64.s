#include "textflag.h"

// FOLD carries the 128-bit block x forward by the distance whose constant
// pair is in k (low qword × k.lo, high qword × k.hi), using t as scratch.
#define FOLD(x, t, k) \
	MOVO      x, t;          \
	PCLMULQDQ $0x00, k, t;   \
	PCLMULQDQ $0x11, k, x;   \
	PXOR      t, x

// func foldBlocks(r *[16]byte, p []byte, k *[4]uint64)
TEXT ·foldBlocks(SB), NOSPLIT, $0-40
	MOVQ  r+0(FP), DI
	MOVQ  p_base+8(FP), SI
	MOVQ  p_len+16(FP), CX
	MOVQ  k+32(FP), DX
	MOVOU 0(DX), X8  // d = 512 pair
	MOVOU 16(DX), X9 // d = 128 pair

	// Four lanes of 16 bytes; the initial all-ones register is XORed into
	// the first 8 bytes of the message.
	MOVOU   0(SI), X0
	MOVOU   16(SI), X1
	MOVOU   32(SI), X2
	MOVOU   48(SI), X3
	PCMPEQB X10, X10
	PSRLDQ  $8, X10
	PXOR    X10, X0
	ADDQ    $64, SI
	SUBQ    $64, CX

loop4:
	CMPQ  CX, $64
	JB    fold4
	FOLD(X0, X4, X8)
	FOLD(X1, X5, X8)
	FOLD(X2, X6, X8)
	FOLD(X3, X7, X8)
	MOVOU 0(SI), X10
	MOVOU 16(SI), X11
	MOVOU 32(SI), X12
	MOVOU 48(SI), X13
	PXOR  X10, X0
	PXOR  X11, X1
	PXOR  X12, X2
	PXOR  X13, X3
	ADDQ  $64, SI
	SUBQ  $64, CX
	JMP   loop4

fold4:
	// Fold the four lanes into one, then any remaining 16-byte blocks.
	FOLD(X0, X4, X9)
	PXOR X1, X0
	FOLD(X0, X4, X9)
	PXOR X2, X0
	FOLD(X0, X4, X9)
	PXOR X3, X0

loop1:
	CMPQ  CX, $16
	JB    done
	FOLD(X0, X4, X9)
	MOVOU 0(SI), X10
	PXOR  X10, X0
	ADDQ  $16, SI
	SUBQ  $16, CX
	JMP   loop1

done:
	MOVOU X0, 0(DI)
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET
