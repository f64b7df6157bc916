package netsim

import (
	"net"
	"syscall"
)

// peerProbe tells, without blocking, whether the peer of an idle socket
// has closed it: a read would return end of file. It peeks one byte, so
// a socket with unread bytes waiting reads as open. The raw connection
// and the read callback are bound once per socket, so a probe allocates
// nothing.
type peerProbe struct {
	raw  syscall.RawConn
	read func(fd uintptr) bool
	buf  [1]byte
	eof  bool
}

func newPeerProbe(c net.Conn) *peerProbe {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	p := &peerProbe{raw: raw}
	p.read = p.peek
	return p
}

func (p *peerProbe) peek(fd uintptr) bool {
	n, _, err := syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	p.eof = n == 0 && err == nil || err == syscall.ECONNRESET
	return true // done: never wait for the socket to become readable
}

func (p *peerProbe) closed() bool {
	if p == nil {
		return false
	}
	p.eof = false
	p.raw.Read(p.read)
	return p.eof
}
