package webdis

import (
	"strings"
	"testing"
	"time"
)

// The facade tests exercise the library exactly as the README shows,
// through the public API only.

func TestQuickstartFlow(t *testing.T) {
	web := NewWeb()
	home := web.NewPage("http://dept.example/index.html", "Home")
	home.AddText("hello")
	home.AddLink("/a.html", "a")
	a := web.NewPage("http://dept.example/a.html", "A")
	a.AddLink("http://other.example/b.html", "b")
	web.NewPage("http://other.example/b.html", "B").AddText("the end")

	d, err := NewDeployment(Config{Web: web})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q, err := d.Run(`
select a.href
from document d such that "http://dept.example/index.html" N|L* d,
     anchor a
where a.ltype = "G"`, Forever)
	if err != nil {
		t.Fatal(err)
	}
	res := q.Results()
	if len(res) != 1 || len(res[0].Rows) != 1 || res[0].Rows[0][0] != "http://other.example/b.html" {
		t.Fatalf("results = %+v", res)
	}
}

func TestCampusFacade(t *testing.T) {
	d, err := NewDeployment(Config{Web: CampusWeb()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.Run(CampusQuery, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Results()) != 2 {
		t.Fatalf("results = %+v", q.Results())
	}
	// And the centralized baseline agrees.
	w, err := ParseDISQL(CampusQuery)
	if err != nil {
		t.Fatal(err)
	}
	cent, err := RunCentralized(d, w, CentralizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cent.Tables) != 2 || len(cent.Tables[1].Rows) != len(q.Results()[1].Rows) {
		t.Fatalf("centralized disagrees: %+v", cent.Tables)
	}
}

func TestParsePREFacade(t *testing.T) {
	e, err := ParsePRE("N | G·(L*4)")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "N|G·L*4" {
		t.Errorf("e = %s", e)
	}
	if _, err := ParsePRE("(("); err == nil {
		t.Error("bad PRE should fail")
	}
}

func TestGeneratorsFacade(t *testing.T) {
	if Figure1Web().NumPages() != 8 {
		t.Error("figure1")
	}
	if Figure5Web().NumPages() != 7 {
		t.Error("figure5")
	}
	if TreeWeb(TreeOpts{Fanout: 2, Depth: 2, PagesPerSite: 2}).NumPages() != 7 {
		t.Error("tree")
	}
	if ChainWeb(5, 1, 1).NumSites() != 5 {
		t.Error("chain")
	}
	if GridWeb(3, 3, 1).NumPages() != 9 {
		t.Error("grid")
	}
	if RandomWeb(RandomOpts{Sites: 2, PagesPerSite: 3, Seed: 1}).NumPages() != 6 {
		t.Error("random")
	}
}

func TestTraceFacade(t *testing.T) {
	d, err := NewDeployment(Config{Web: Figure1Web(), Exec: ExecConfig{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.Run(Figure1Query, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1: q1 is answered at nodes 4, 5, 6 and q2 at nodes 4, 8.
	evals := 0
	for _, l := range d.Journey(q).Traversal() {
		if l.Action == "eval" {
			evals++
		}
	}
	if evals != 5 {
		t.Errorf("journey lists %d evaluations, want 5", evals)
	}
}

func TestDedupModeNames(t *testing.T) {
	for mode, want := range map[DedupMode]string{
		DedupOff: "off", DedupExact: "exact", DedupSubsume: "subsume", DedupStrong: "strong",
	} {
		if mode.String() != want {
			t.Errorf("%v = %q", mode, mode.String())
		}
	}
}

func TestWebQueryString(t *testing.T) {
	w, err := ParseDISQL(CampusQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.String(), "L q1 G·L*1 q2") {
		t.Errorf("String = %q", w.String())
	}
}

func TestHybridFacade(t *testing.T) {
	// The migration-path API end to end through the facade: only the CSA
	// department participates; answers are unchanged.
	d, err := NewDeployment(Config{
		Web: CampusWeb(),
		Exec: ExecConfig{
			Participate: func(site string) bool { return site == "csa.iisc.ernet.in" },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.Run(CampusQuery, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Results()) != 2 || len(q.Results()[1].Rows) != 3 {
		t.Fatalf("results = %+v", q.Results())
	}
	fs := q.FallbackStats()
	if fs.Fetches == 0 {
		t.Errorf("fallback stats = %+v", fs)
	}
}

func TestIndexFacade(t *testing.T) {
	ix, err := BuildIndex(CampusWeb())
	if err != nil {
		t.Fatal(err)
	}
	if hits := ix.URLs("convener", 0); len(hits) != 3 {
		t.Errorf("hits = %v", hits)
	}
	d, err := NewDeployment(Config{Web: CampusWeb()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ix2, err := d.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Docs() != 15 {
		t.Errorf("docs = %d", ix2.Docs())
	}
}

func TestAnytimeFacade(t *testing.T) {
	d, err := NewDeployment(Config{
		Web: TreeWeb(TreeOpts{Fanout: 3, Depth: 3, PagesPerSite: 2, MarkerFrac: 0.5, Seed: 3}),
		Net: NetOptions{Latency: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.SubmitDISQL(`select d.url from document d such that "http://t0.example/p0.html" N|(L|G)* d where d.text contains "xanadu"`)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel mid-flight: partial results survive.
	time.Sleep(8 * time.Millisecond)
	partial := q.RowCount()
	q.Cancel()
	if q.RowCount() < partial {
		t.Error("cancel must not lose rows")
	}
	if p := q.Progress(); p != 1 {
		t.Errorf("finished query progress = %v", p) // done (cancelled) reports 1
	}
}

func TestPowerLawFacade(t *testing.T) {
	w := PowerLawWeb(PowerLawOpts{Pages: 60, PagesPerSite: 2, OutLinks: 2, Seed: 4})
	if w.NumPages() != 60 {
		t.Errorf("pages = %d", w.NumPages())
	}
	d, err := NewDeployment(Config{Web: w, Exec: ExecConfig{NoDocService: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q, err := d.Run(`select d.url from document d such that "http://pl0.example/p0.html" N|(L|G)*4 d where d.url contains "p"`, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if q.RowCount() == 0 {
		t.Error("no rows on the power-law web")
	}
}
