//go:build !linux

package netsim

import "net"

// peerProbe cannot tell off Linux whether a socket's peer has closed it
// without blocking: a pooled connection is then found stale only when a
// write into it fails.
type peerProbe struct{}

func newPeerProbe(net.Conn) *peerProbe { return nil }

func (p *peerProbe) closed() bool { return false }
