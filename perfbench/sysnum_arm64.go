package main

// Syscall numbers the syscall package does not export on linux/arm64.
const (
	sysSendmmsg = 269
	sysRecvmmsg = 243
)
