package main

// Syscall numbers the syscall package does not export on linux/amd64.
const (
	sysSendmmsg = 307
	sysRecvmmsg = 299
)
