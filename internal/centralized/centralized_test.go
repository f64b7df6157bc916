package centralized

import (
	"strings"
	"testing"

	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/nodeproc"
	"webdis/internal/webgraph"
	"webdis/internal/webserver"
)

// fabric starts document hosts for every site of web.
func fabric(t *testing.T, web *webgraph.Web) *netsim.Network {
	t.Helper()
	n := netsim.New(netsim.Options{})
	for _, site := range web.Hosts() {
		h := webserver.NewHost(site, web)
		if err := h.Start(n); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Stop)
	}
	return n
}

func TestCampusQueryCentralized(t *testing.T) {
	web := webgraph.Campus()
	n := fabric(t, web)
	w := disql.MustParse(webgraph.CampusDISQL)
	res, err := Run(n, "user/results", w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("tables = %+v", res.Tables)
	}
	if len(res.Tables[1].Rows) != len(webgraph.CampusConveners) {
		t.Errorf("q2 rows = %+v", res.Tables[1].Rows)
	}
	for _, row := range res.Tables[1].Rows {
		want := webgraph.CampusConveners[row[0]]
		if want == "" || !strings.Contains(row[1], want) {
			t.Errorf("row = %v", row)
		}
	}
	st := res.Stats
	// Data shipping: every visited document crossed the network once (the
	// cache absorbs revisits).
	if st.Fetches == 0 || st.BytesDownloaded == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Evaluations == 0 || st.DeadEnds == 0 {
		t.Errorf("stats = %+v", st)
	}
	// All document bytes flowed to the user-site.
	in := n.Stats().Snapshot().To("user/results")
	if in.Bytes < st.BytesDownloaded {
		t.Errorf("inbound %d < downloaded %d", in.Bytes, st.BytesDownloaded)
	}
}

func TestCentralizedDedupModes(t *testing.T) {
	web := webgraph.Figure5()
	n := fabric(t, web)
	w := disql.MustParse(webgraph.Figure5DISQL)

	def, err := Run(n, "a/results", w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Stats.DupDropped != 2 {
		t.Errorf("default dedup dropped = %d, want 2 (arrivals d, e)", def.Stats.DupDropped)
	}
	off, err := Run(n, "b/results", w, Options{Dedup: nodeproc.DedupOff, MaxHops: 16})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.DupDropped != 0 || off.Stats.Evaluations <= def.Stats.Evaluations {
		t.Errorf("dedup-off stats = %+v vs %+v", off.Stats, def.Stats)
	}
	// Same answers either way.
	if len(off.Tables) != len(def.Tables) {
		t.Fatalf("tables differ")
	}
	for i := range off.Tables {
		if len(off.Tables[i].Rows) != len(def.Tables[i].Rows) {
			t.Errorf("stage %d rows differ: %v vs %v", i, off.Tables[i].Rows, def.Tables[i].Rows)
		}
	}
}

func TestCentralizedMaxHops(t *testing.T) {
	web := webgraph.Chain(20, 1, 2)
	n := fabric(t, web)
	w := disql.MustParse(`select d.url from document d such that "http://c0.example/p0.html" N|G* d`)
	res, err := Run(n, "u/results", w, Options{MaxHops: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 6 {
		t.Errorf("rows = %+v", res.Tables)
	}
}

func TestCentralizedInvalidQuery(t *testing.T) {
	n := netsim.New(netsim.Options{})
	if _, err := Run(n, "u", &disql.WebQuery{}, Options{}); err == nil {
		t.Fatal("invalid query should fail")
	}
}

func TestCentralizedStrictDeadEnds(t *testing.T) {
	web := webgraph.Campus()
	n := fabric(t, web)
	w := disql.MustParse(webgraph.CampusDISQL)
	res, err := Run(n, "u/results", w, Options{StrictDeadEnds: true})
	if err != nil {
		t.Fatal(err)
	}
	var q2 int
	for _, tbl := range res.Tables {
		if tbl.Stage == 1 {
			q2 = len(tbl.Rows)
		}
	}
	if q2 != 1 {
		t.Errorf("strict q2 rows = %d", q2)
	}
}
