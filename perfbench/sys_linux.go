package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// The generator's own batched UDP I/O, kept independent of the
// repository's netio package so a change there moves only the server
// side of a measurement.

// mmsghdr mirrors struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// mconn is a connected UDP socket with sendmmsg/recvmmsg batches.
type mconn struct {
	uc  *net.UDPConn
	raw syscall.RawConn

	txHdr []mmsghdr
	txIov []syscall.Iovec

	txN, txDone int
	txErr       error
	writeFn     func(fd uintptr) bool

	rxHdr  []mmsghdr
	rxIov  []syscall.Iovec
	rxBuf  [][]byte
	rxN    int
	rxErr  error
	readFn func(fd uintptr) bool
}

const maxBatch = 64

func newMconn(uc *net.UDPConn) (*mconn, error) {
	raw, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &mconn{uc: uc, raw: raw,
		txHdr: make([]mmsghdr, maxBatch), txIov: make([]syscall.Iovec, maxBatch),
		rxHdr: make([]mmsghdr, maxBatch), rxIov: make([]syscall.Iovec, maxBatch),
		rxBuf: make([][]byte, maxBatch)}
	for i := range c.rxBuf {
		c.rxBuf[i] = make([]byte, 2048)
		c.rxIov[i].Base = &c.rxBuf[i][0]
		c.rxIov[i].SetLen(len(c.rxBuf[i]))
		c.rxHdr[i].hdr.Iov = &c.rxIov[i]
		c.rxHdr[i].hdr.Iovlen = 1
	}
	c.writeFn, c.readFn = c.write, c.read
	return c, nil
}

// send transmits every datagram in bufs (at most maxBatch), waiting for
// socket space when the kernel queue is full.
func (c *mconn) send(bufs [][]byte) error {
	for i, b := range bufs {
		c.txIov[i].Base = &b[0]
		c.txIov[i].SetLen(len(b))
		c.txHdr[i].hdr.Iov = &c.txIov[i]
		c.txHdr[i].hdr.Iovlen = 1
	}
	c.txN, c.txDone, c.txErr = len(bufs), 0, nil
	if err := c.raw.Write(c.writeFn); err != nil {
		return err
	}
	return c.txErr
}

// write is the RawConn callback of send, bound once in newMconn so the
// pacing loop does not allocate a closure per batch.
func (c *mconn) write(fd uintptr) bool {
	for c.txDone < c.txN {
		n, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&c.txHdr[c.txDone])), uintptr(c.txN-c.txDone), syscall.MSG_DONTWAIT, 0, 0)
		switch {
		case e == syscall.EAGAIN:
			return false
		case e == syscall.EINTR, e == syscall.ECONNREFUSED:
			// ECONNREFUSED reports an earlier datagram that bounced; that
			// one counts as lost and sending goes on.
			continue
		case e != 0:
			c.txErr = e
			return true
		}
		c.txDone += int(n)
	}
	return true
}

// recv blocks for at least one datagram and returns how many arrived;
// datagram i is c.datagram(i).
func (c *mconn) recv() (int, error) {
	c.rxN, c.rxErr = 0, nil
	if err := c.raw.Read(c.readFn); err != nil {
		return 0, err
	}
	return c.rxN, c.rxErr
}

func (c *mconn) read(fd uintptr) bool {
	for {
		r, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&c.rxHdr[0])), uintptr(len(c.rxHdr)), syscall.MSG_DONTWAIT, 0, 0)
		switch {
		case e == syscall.EAGAIN:
			return false
		case e == syscall.EINTR, e == syscall.ECONNREFUSED:
			continue
		case e != 0:
			c.rxErr = e
			return true
		}
		c.rxN = int(r)
		return true
	}
}

func (c *mconn) datagram(i int) []byte { return c.rxBuf[i][:c.rxHdr[i].len] }

// sleepNs sleeps for d nanoseconds on the calling thread. The runtime
// timer rounds sub-millisecond sleeps up to about a millisecond here, so
// the pacer calls nanosleep directly with the thread's timer slack
// lowered by setTimerSlack.
func sleepNs(d int64) {
	ts := syscall.NsecToTimespec(d)
	for {
		if err := syscall.Nanosleep(&ts, &ts); !errors.Is(err, syscall.EINTR) {
			return
		}
	}
}

// setTimerSlack lowers the calling thread's timer slack to 1µs (the
// default 50µs would dominate a 100µs pacing slice).
func setTimerSlack() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

// cpuNs returns this process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// pinTo binds every thread of this process to CPU cpu; threads started
// later inherit the binding.
func pinTo(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] |= 1 << (cpu % 64)
	return setAffinity(&mask)
}

// pinExcept binds every thread of this process to CPUs 0..n-1 but cpu.
func pinExcept(cpu, n int) error {
	var mask [16]uint64
	for c := 0; c < n && c < 64*len(mask); c++ {
		if c != cpu {
			mask[c/64] |= 1 << (c % 64)
		}
	}
	return setAffinity(&mask)
}

func setAffinity(mask *[16]uint64) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
			unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); e != 0 && e != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity: %w", e)
		}
	}
	return nil
}
