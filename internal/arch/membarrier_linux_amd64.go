//go:build linux && amd64 && !race

package arch

import "syscall"

// membarrier(2) on linux/amd64.
const (
	sysMembarrier                      = 324
	membarrierPrivateExpedited         = 1 << 3
	membarrierRegisterPrivateExpedited = 1 << 4
)

// AsymmetricFences reports whether ProcessBarrier is a real
// process-wide barrier. It is set once at init, when the kernel accepts
// the MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED registration.
var AsymmetricFences = register()

func register() bool {
	_, _, errno := syscall.Syscall(sysMembarrier, membarrierRegisterPrivateExpedited, 0, 0)
	return errno == 0
}

// ProcessBarrier issues a full memory barrier on every CPU currently
// running a thread of this process (MEMBARRIER_CMD_PRIVATE_EXPEDITED),
// and returns after all of them have executed it. It lets a rare
// remote party pay the fence that a frequent local party omits: a
// store the local party made before its most recent load is globally
// visible when ProcessBarrier returns (asymmetric Dekker
// synchronization). A no-op when AsymmetricFences is false.
func ProcessBarrier() {
	if !AsymmetricFences {
		return
	}
	// After a successful registration the kernel has no reason to
	// refuse; carrying on without the barrier would leave the biased
	// handshake unsound, so a failure is fatal.
	if _, _, errno := syscall.Syscall(sysMembarrier, membarrierPrivateExpedited, 0, 0); errno != 0 {
		panic("arch: membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED): " + errno.Error())
	}
}
