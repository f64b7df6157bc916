package netsim

import (
	"net"
	"testing"
	"time"
)

// TestServingCloseEndsHandlers: Close shuts the listener and every
// accepted connection, so a handler blocked reading an idle connection
// returns, Wait does not hang, and a dial after Close is refused.
func TestServingCloseEndsHandlers(t *testing.T) {
	n := New(Options{})
	ln, err := n.Listen("a/x")
	if err != nil {
		t.Fatal(err)
	}
	reading := make(chan struct{}, 2)
	sv := Serve(ln, func(c net.Conn) {
		reading <- struct{}{}
		var b [1]byte
		c.Read(b[:]) // blocks until the connection closes
	})
	for i := 0; i < 2; i++ {
		c, err := n.Dial("b/y", "a/x")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		<-reading
	}
	done := make(chan struct{})
	go func() { sv.Close(); sv.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close+Wait blocked on idle handlers")
	}
	if _, err := n.Dial("b/y", "a/x"); err == nil {
		t.Error("dial after Close succeeded")
	}
	sv.Close() // idempotent
}
