#include "textflag.h"

// Sixteen-lane SHA-256 block function (AVX-512F + AVX-512BW).
//
// Lane i of every ZMM register below belongs to message i: the kernel runs
// the same compression function on sixteen independent messages at once,
// one 32-bit word of each per register lane. The Go side (sum_amd64.go)
// picks the messages, pads their last blocks and decides how many blocks to
// run; this file only runs blocks.
//
// Registers:
//	Z0-Z7    working variables a..h, rotated by name from round to round
//	W0-W15   the message schedule's sliding window (W[t] for t mod 16)
//	T0-T6    temporaries
//	Z28      the byte-swap shuffle (message words are big-endian)
//	R10      the round constants

// Offsets into lanes (sum_amd64.go).
#define LANES_H    0
#define LANES_SAVE 512
#define LANES_P    1024

// The message words land in these registers after the 16x16 transpose.
#define W0 Z27
#define W1 Z9
#define W2 Z16
#define W3 Z19
#define W4 Z25
#define W5 Z30
#define W6 Z20
#define W7 Z23
#define W8 Z18
#define W9 Z12
#define W10 Z15
#define W11 Z26
#define W12 Z8
#define W13 Z11
#define W14 Z24
#define W15 Z13

#define T0 Z10
#define T1 Z14
#define T2 Z17
#define T3 Z21
#define T4 Z22
#define T5 Z29
#define T6 Z31

#define BSWAP Z28
#define KTAB R10

// ROUND runs round i of SHA-256 on sixteen lanes, in place:
//	t = h + Σ1(e) + Ch(e, f, g) + K[i] + W[i];  d += t
//	h = t + Σ0(a) + Maj(a, b, c)
// and the caller renames: the next round's (a..h) is (h, a, b, c, d, e, f, g),
// so eight rounds bring every variable back to its register.
// VPTERNLOGD $0x96 is a three-way XOR, $0xCA is Ch (e ? f : g) and $0xE8 is
// the majority function.
#define ROUND(a, b, c, d, e, f, g, h, w, i) \
	VPADDD w, h, h; \
	VPADDD.BCST (i*4)(KTAB), h, h; \
	VPRORD $6, e, T0; \
	VPRORD $11, e, T1; \
	VPRORD $25, e, T2; \
	VPTERNLOGD $0x96, T2, T1, T0; \
	VMOVDQA32 e, T1; \
	VPTERNLOGD $0xCA, g, f, T1; \
	VPADDD T0, h, h; \
	VPADDD T1, h, h; \
	VPADDD h, d, d; \
	VPRORD $2, a, T0; \
	VPRORD $13, a, T1; \
	VPRORD $22, a, T2; \
	VPTERNLOGD $0x96, T2, T1, T0; \
	VMOVDQA32 a, T1; \
	VPTERNLOGD $0xE8, c, b, T1; \
	VPADDD T0, h, h; \
	VPADDD T1, h, h

// SCHED extends the message schedule by one word, in place of the oldest:
//	W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
// with w16 holding W[t-16] on entry and W[t] on exit.
#define SCHED(w16, w15, w7, w2) \
	VPRORD $7, w15, T3; \
	VPRORD $18, w15, T4; \
	VPSRLD $3, w15, T5; \
	VPTERNLOGD $0x96, T5, T4, T3; \
	VPRORD $17, w2, T4; \
	VPRORD $19, w2, T5; \
	VPSRLD $10, w2, T6; \
	VPTERNLOGD $0x96, T6, T5, T4; \
	VPADDD T3, w16, w16; \
	VPADDD T4, w16, w16; \
	VPADDD w7, w16, w16

// LOAD fetches lane i's block at offset R9 into z and byte-swaps its words.
#define LOAD(i, z) \
	MOVQ (LANES_P+8*i)(AX), R8; \
	VMOVDQU32 (R8)(R9*1), z; \
	VPSHUFB BSWAP, z, z

// func blocks16(l *lanes, n int)
//
// blocks16 runs n blocks of every lane: lane i reads them from l.p[i]
// onward, and its chaining value is l.h[0..7][i]. n must be at least 1.
TEXT ·blocks16(SB), NOSPLIT, $0-16
	MOVQ l+0(FP), AX
	MOVQ n+8(FP), CX
	LEAQ k256<>(SB), KTAB
	VMOVDQU32 bswapMask<>(SB), BSWAP
	XORQ R9, R9
	VMOVDQU32 (LANES_H+0)(AX), Z0
	VMOVDQU32 (LANES_H+64)(AX), Z1
	VMOVDQU32 (LANES_H+128)(AX), Z2
	VMOVDQU32 (LANES_H+192)(AX), Z3
	VMOVDQU32 (LANES_H+256)(AX), Z4
	VMOVDQU32 (LANES_H+320)(AX), Z5
	VMOVDQU32 (LANES_H+384)(AX), Z6
	VMOVDQU32 (LANES_H+448)(AX), Z7

loop:
	VMOVDQU32 Z0, (LANES_SAVE+0)(AX)
	VMOVDQU32 Z1, (LANES_SAVE+64)(AX)
	VMOVDQU32 Z2, (LANES_SAVE+128)(AX)
	VMOVDQU32 Z3, (LANES_SAVE+192)(AX)
	VMOVDQU32 Z4, (LANES_SAVE+256)(AX)
	VMOVDQU32 Z5, (LANES_SAVE+320)(AX)
	VMOVDQU32 Z6, (LANES_SAVE+384)(AX)
	VMOVDQU32 Z7, (LANES_SAVE+448)(AX)

	LOAD(0, Z8)
	LOAD(1, Z9)
	LOAD(2, Z10)
	LOAD(3, Z11)
	LOAD(4, Z12)
	LOAD(5, Z13)
	LOAD(6, Z14)
	LOAD(7, Z15)
	LOAD(8, Z16)
	LOAD(9, Z17)
	LOAD(10, Z18)
	LOAD(11, Z19)
	LOAD(12, Z20)
	LOAD(13, Z21)
	LOAD(14, Z22)
	LOAD(15, Z23)

	// Transpose: Z(8+i) holds lane i's sixteen words; W[j] is to hold
	// word j of every lane. The two unpack stages interleave dwords, then
	// qwords, of neighbouring lanes within each 128-bit quarter, so that a
	// register holds words w, w+4, w+8 and w+12 of four lanes; the two
	// VSHUFI32X4 stages then move those quarters between the four
	// registers of each w. Outputs go to whichever register is free, hence
	// the W aliases above.
	VPUNPCKHDQ Z9, Z8, Z24
	VPUNPCKLDQ Z9, Z8, Z8
	VPUNPCKHDQ Z11, Z10, Z25
	VPUNPCKLDQ Z11, Z10, Z10
	VPUNPCKHDQ Z13, Z12, Z26
	VPUNPCKLDQ Z13, Z12, Z12
	VPUNPCKHDQ Z15, Z14, Z27
	VPUNPCKLDQ Z15, Z14, Z14
	VPUNPCKHDQ Z17, Z16, Z29
	VPUNPCKLDQ Z17, Z16, Z16
	VPUNPCKHDQ Z19, Z18, Z30
	VPUNPCKLDQ Z19, Z18, Z18
	VPUNPCKHDQ Z21, Z20, Z31
	VPUNPCKLDQ Z21, Z20, Z20
	VPUNPCKHDQ Z23, Z22, Z9
	VPUNPCKLDQ Z23, Z22, Z22
	VPUNPCKHQDQ Z10, Z8, Z11
	VPUNPCKLQDQ Z10, Z8, Z8
	VPUNPCKHQDQ Z25, Z24, Z13
	VPUNPCKLQDQ Z25, Z24, Z24
	VPUNPCKHQDQ Z14, Z12, Z15
	VPUNPCKLQDQ Z14, Z12, Z12
	VPUNPCKHQDQ Z27, Z26, Z17
	VPUNPCKLQDQ Z27, Z26, Z26
	VPUNPCKHQDQ Z18, Z16, Z19
	VPUNPCKLQDQ Z18, Z16, Z16
	VPUNPCKHQDQ Z30, Z29, Z21
	VPUNPCKLQDQ Z30, Z29, Z29
	VPUNPCKHQDQ Z22, Z20, Z23
	VPUNPCKLQDQ Z22, Z20, Z20
	VPUNPCKHQDQ Z9, Z31, Z10
	VPUNPCKLQDQ Z9, Z31, Z31
	VSHUFI32X4 $0x44, Z12, Z8, Z25
	VSHUFI32X4 $0xEE, Z12, Z8, Z8
	VSHUFI32X4 $0x44, Z20, Z16, Z14
	VSHUFI32X4 $0xEE, Z20, Z16, Z16
	VSHUFI32X4 $0x88, Z14, Z25, Z27
	VSHUFI32X4 $0xDD, Z14, Z25, Z25
	VSHUFI32X4 $0x88, Z16, Z8, Z18
	VSHUFI32X4 $0xDD, Z16, Z8, Z8
	VSHUFI32X4 $0x44, Z15, Z11, Z30
	VSHUFI32X4 $0xEE, Z15, Z11, Z11
	VSHUFI32X4 $0x44, Z23, Z19, Z22
	VSHUFI32X4 $0xEE, Z23, Z19, Z19
	VSHUFI32X4 $0x88, Z22, Z30, Z9
	VSHUFI32X4 $0xDD, Z22, Z30, Z30
	VSHUFI32X4 $0x88, Z19, Z11, Z12
	VSHUFI32X4 $0xDD, Z19, Z11, Z11
	VSHUFI32X4 $0x44, Z26, Z24, Z20
	VSHUFI32X4 $0xEE, Z26, Z24, Z24
	VSHUFI32X4 $0x44, Z31, Z29, Z14
	VSHUFI32X4 $0xEE, Z31, Z29, Z29
	VSHUFI32X4 $0x88, Z14, Z20, Z16
	VSHUFI32X4 $0xDD, Z14, Z20, Z20
	VSHUFI32X4 $0x88, Z29, Z24, Z15
	VSHUFI32X4 $0xDD, Z29, Z24, Z24
	VSHUFI32X4 $0x44, Z17, Z13, Z23
	VSHUFI32X4 $0xEE, Z17, Z13, Z13
	VSHUFI32X4 $0x44, Z10, Z21, Z22
	VSHUFI32X4 $0xEE, Z10, Z21, Z21
	VSHUFI32X4 $0x88, Z22, Z23, Z19
	VSHUFI32X4 $0xDD, Z22, Z23, Z23
	VSHUFI32X4 $0x88, Z21, Z13, Z26
	VSHUFI32X4 $0xDD, Z21, Z13, Z13

	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, W0, 0)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, W1, 1)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, W2, 2)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, W3, 3)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, W4, 4)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, W5, 5)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, W6, 6)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, W7, 7)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, W8, 8)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, W9, 9)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, W10, 10)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, W11, 11)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, W12, 12)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, W13, 13)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, W14, 14)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, W15, 15)
	SCHED(W0, W1, W9, W14)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, W0, 16)
	SCHED(W1, W2, W10, W15)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, W1, 17)
	SCHED(W2, W3, W11, W0)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, W2, 18)
	SCHED(W3, W4, W12, W1)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, W3, 19)
	SCHED(W4, W5, W13, W2)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, W4, 20)
	SCHED(W5, W6, W14, W3)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, W5, 21)
	SCHED(W6, W7, W15, W4)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, W6, 22)
	SCHED(W7, W8, W0, W5)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, W7, 23)
	SCHED(W8, W9, W1, W6)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, W8, 24)
	SCHED(W9, W10, W2, W7)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, W9, 25)
	SCHED(W10, W11, W3, W8)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, W10, 26)
	SCHED(W11, W12, W4, W9)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, W11, 27)
	SCHED(W12, W13, W5, W10)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, W12, 28)
	SCHED(W13, W14, W6, W11)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, W13, 29)
	SCHED(W14, W15, W7, W12)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, W14, 30)
	SCHED(W15, W0, W8, W13)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, W15, 31)
	SCHED(W0, W1, W9, W14)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, W0, 32)
	SCHED(W1, W2, W10, W15)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, W1, 33)
	SCHED(W2, W3, W11, W0)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, W2, 34)
	SCHED(W3, W4, W12, W1)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, W3, 35)
	SCHED(W4, W5, W13, W2)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, W4, 36)
	SCHED(W5, W6, W14, W3)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, W5, 37)
	SCHED(W6, W7, W15, W4)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, W6, 38)
	SCHED(W7, W8, W0, W5)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, W7, 39)
	SCHED(W8, W9, W1, W6)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, W8, 40)
	SCHED(W9, W10, W2, W7)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, W9, 41)
	SCHED(W10, W11, W3, W8)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, W10, 42)
	SCHED(W11, W12, W4, W9)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, W11, 43)
	SCHED(W12, W13, W5, W10)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, W12, 44)
	SCHED(W13, W14, W6, W11)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, W13, 45)
	SCHED(W14, W15, W7, W12)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, W14, 46)
	SCHED(W15, W0, W8, W13)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, W15, 47)
	SCHED(W0, W1, W9, W14)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, W0, 48)
	SCHED(W1, W2, W10, W15)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, W1, 49)
	SCHED(W2, W3, W11, W0)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, W2, 50)
	SCHED(W3, W4, W12, W1)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, W3, 51)
	SCHED(W4, W5, W13, W2)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, W4, 52)
	SCHED(W5, W6, W14, W3)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, W5, 53)
	SCHED(W6, W7, W15, W4)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, W6, 54)
	SCHED(W7, W8, W0, W5)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, W7, 55)
	SCHED(W8, W9, W1, W6)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, W8, 56)
	SCHED(W9, W10, W2, W7)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, W9, 57)
	SCHED(W10, W11, W3, W8)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, W10, 58)
	SCHED(W11, W12, W4, W9)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, W11, 59)
	SCHED(W12, W13, W5, W10)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, W12, 60)
	SCHED(W13, W14, W6, W11)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, W13, 61)
	SCHED(W14, W15, W7, W12)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, W14, 62)
	SCHED(W15, W0, W8, W13)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, W15, 63)

	VPADDD (LANES_SAVE+0)(AX), Z0, Z0
	VPADDD (LANES_SAVE+64)(AX), Z1, Z1
	VPADDD (LANES_SAVE+128)(AX), Z2, Z2
	VPADDD (LANES_SAVE+192)(AX), Z3, Z3
	VPADDD (LANES_SAVE+256)(AX), Z4, Z4
	VPADDD (LANES_SAVE+320)(AX), Z5, Z5
	VPADDD (LANES_SAVE+384)(AX), Z6, Z6
	VPADDD (LANES_SAVE+448)(AX), Z7, Z7

	ADDQ $64, R9
	DECQ CX
	JNZ  loop

	VMOVDQU32 Z0, (LANES_H+0)(AX)
	VMOVDQU32 Z1, (LANES_H+64)(AX)
	VMOVDQU32 Z2, (LANES_H+128)(AX)
	VMOVDQU32 Z3, (LANES_H+192)(AX)
	VMOVDQU32 Z4, (LANES_H+256)(AX)
	VMOVDQU32 Z5, (LANES_H+320)(AX)
	VMOVDQU32 Z6, (LANES_H+384)(AX)
	VMOVDQU32 Z7, (LANES_H+448)(AX)
	VZEROUPPER
	RET

DATA k256<>+0(SB)/8, $0x71374491428a2f98
DATA k256<>+8(SB)/8, $0xe9b5dba5b5c0fbcf
DATA k256<>+16(SB)/8, $0x59f111f13956c25b
DATA k256<>+24(SB)/8, $0xab1c5ed5923f82a4
DATA k256<>+32(SB)/8, $0x12835b01d807aa98
DATA k256<>+40(SB)/8, $0x550c7dc3243185be
DATA k256<>+48(SB)/8, $0x80deb1fe72be5d74
DATA k256<>+56(SB)/8, $0xc19bf1749bdc06a7
DATA k256<>+64(SB)/8, $0xefbe4786e49b69c1
DATA k256<>+72(SB)/8, $0x240ca1cc0fc19dc6
DATA k256<>+80(SB)/8, $0x4a7484aa2de92c6f
DATA k256<>+88(SB)/8, $0x76f988da5cb0a9dc
DATA k256<>+96(SB)/8, $0xa831c66d983e5152
DATA k256<>+104(SB)/8, $0xbf597fc7b00327c8
DATA k256<>+112(SB)/8, $0xd5a79147c6e00bf3
DATA k256<>+120(SB)/8, $0x1429296706ca6351
DATA k256<>+128(SB)/8, $0x2e1b213827b70a85
DATA k256<>+136(SB)/8, $0x53380d134d2c6dfc
DATA k256<>+144(SB)/8, $0x766a0abb650a7354
DATA k256<>+152(SB)/8, $0x92722c8581c2c92e
DATA k256<>+160(SB)/8, $0xa81a664ba2bfe8a1
DATA k256<>+168(SB)/8, $0xc76c51a3c24b8b70
DATA k256<>+176(SB)/8, $0xd6990624d192e819
DATA k256<>+184(SB)/8, $0x106aa070f40e3585
DATA k256<>+192(SB)/8, $0x1e376c0819a4c116
DATA k256<>+200(SB)/8, $0x34b0bcb52748774c
DATA k256<>+208(SB)/8, $0x4ed8aa4a391c0cb3
DATA k256<>+216(SB)/8, $0x682e6ff35b9cca4f
DATA k256<>+224(SB)/8, $0x78a5636f748f82ee
DATA k256<>+232(SB)/8, $0x8cc7020884c87814
DATA k256<>+240(SB)/8, $0xa4506ceb90befffa
DATA k256<>+248(SB)/8, $0xc67178f2bef9a3f7
GLOBL k256<>(SB), RODATA|NOPTR, $256

DATA bswapMask<>+0(SB)/8, $0x0405060700010203
DATA bswapMask<>+8(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+16(SB)/8, $0x0405060700010203
DATA bswapMask<>+24(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+32(SB)/8, $0x0405060700010203
DATA bswapMask<>+40(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+48(SB)/8, $0x0405060700010203
DATA bswapMask<>+56(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswapMask<>(SB), RODATA|NOPTR, $64

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
