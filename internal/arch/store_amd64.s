//go:build amd64 && !race

#include "textflag.h"

// func StoreRelease(addr *uint32, v uint32)
TEXT ·StoreRelease(SB), NOSPLIT, $0-12
	MOVQ	addr+0(FP), AX
	MOVL	v+8(FP), BX
	MOVL	BX, (AX)
	RET

// func StoreRelease64(addr *uint64, v uint64)
TEXT ·StoreRelease64(SB), NOSPLIT, $0-16
	MOVQ	addr+0(FP), AX
	MOVQ	v+8(FP), BX
	MOVQ	BX, (AX)
	RET
