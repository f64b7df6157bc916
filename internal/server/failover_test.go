package server

import (
	"testing"
	"time"

	"webdis/internal/cluster"
	"webdis/internal/netsim"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
	"webdis/internal/wire"
)

// TestSendSiteFailsOverToLiveReplica drives the server's forward path
// against a two-replica site whose hashed-primary replica is dead: the
// send must exhaust the retry policy against the corpse, re-resolve
// through the membership table, and deliver to the surviving replica.
func TestSendSiteFailsOverToLiveReplica(t *testing.T) {
	net := netsim.New(netsim.Options{})
	cl := cluster.New(cluster.Options{SuspectAfter: 1, DownAfter: 1})
	cl.AddSite("b.example", 2)

	web := webgraph.Campus()
	met := &Metrics{}
	s := New("a.example", webserver.NewHost("a.example", web), net, met, Options{Cluster: cl})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)

	got := make(chan string, 4)
	for i := 0; i < 2; i++ {
		ep := cluster.ReplicaEndpoint("b.example", i)
		ln, err := net.Listen(ep)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func(ep string) {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					framed := wire.NewFramed(conn)
					for {
						if _, err := wire.Receive(framed); err != nil {
							return
						}
						got <- ep
					}
				}()
			}
		}(ep)
	}

	c := &wire.CloneMsg{
		ID:   wire.QueryID{User: "u", Site: "user/q1", Num: 1},
		Dest: []wire.DestNode{{URL: "http://b.example/x.html", Origin: "user/q1", Seq: 1}},
		Rem:  "_",
	}
	primary, ok := cl.Pick("b.example", c.ID.String(), nil)
	if !ok {
		t.Fatal("pick failed")
	}
	cl.ReportSuccess(primary) // balance the probe pick
	net.Kill(primary)

	if _, _, err := s.out.SendSite("b.example", c, nil); err != nil {
		t.Fatalf("sendSite with one live replica: %v", err)
	}
	select {
	case arrived := <-got:
		if arrived == primary {
			t.Fatalf("clone delivered to the killed replica %s", primary)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("clone never arrived anywhere")
	}
	if n := met.Failovers.Load(); n != 1 {
		t.Errorf("Failovers = %d, want 1", n)
	}
	if st := cl.StateOf(primary); st == cluster.Alive {
		t.Error("killed replica still alive in the membership table")
	}

	// With every replica dead the error finally surfaces — the caller's
	// bounce/retire path takes over from there.
	for _, ep := range cl.Endpoints("b.example") {
		net.Kill(ep)
	}
	if _, _, err := s.out.SendSite("b.example", c, nil); err == nil {
		t.Fatal("sendSite succeeded with every replica dead")
	}
}
