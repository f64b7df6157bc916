package htmlx

import (
	"net/url"
	"testing"

	"webdis/internal/pre"
)

// linkBases and linkHrefs seed FuzzClassify: plain links of every shape
// the slicing path takes, and the near misses that must fall back.
var (
	linkBases = []string{
		"http://a.example/x.html", "http://a.example", "http://a.example/",
		"https://a.example/dir/x.html", "http://dsl.serc.iisc.ernet.in/index.html",
		"http://A.example/x.html", "http://a.example:80/x.html", "http://a.example/d/../x.html",
		"http://a.example/x.html?q=1", "http://a.example/x.html#top", "http://u@a.example/",
		"http://a.example/%7Ex.html", "ftp://a.example/x", "/rooted", "http://a.example//x",
	}
	linkHrefs = []string{
		"http://a.example/y.html", "http://b.example/y.html", "https://a.example/", "http://a.example",
		"http://b.example", "/members.html", "/", "/a/b/", "/~user/p-1_2.html",
		"//b.example/y.html", "/./y.html", "/../y.html", "/a//b", "/.hidden", "y.html", "../y.html",
		"#top", "x.html#top", "/x.html?q", "/%7Ex.html", "http://B.example/", "HTTP://a.example/",
		"http://a.example:8080/", "http://a.example/y.html#f", "http://[bad", "mailto:a@b", "http://",
		"http:///x", "http://a.example/ü.html", "",
	}
)

// FuzzClassify holds the plain-URL path to net/url: for every base that
// net/url accepts, the linker writes the same Base and resolves and
// classifies every href exactly as classify does.
func FuzzClassify(f *testing.F) {
	for _, b := range linkBases {
		for _, h := range linkHrefs {
			f.Add(b, h)
		}
	}
	f.Fuzz(func(t *testing.T, base, href string) {
		u, err := url.Parse(base)
		lk, lerr := newLinker(base)
		if (err != nil) != (lerr != nil) {
			t.Fatalf("base %q: url.Parse error %v, newLinker error %v", base, err, lerr)
		}
		if err != nil {
			return
		}
		want := classify(u, u.String(), href)
		if got := lk.anchor(href); got != want {
			t.Errorf("base %q, href %q:\n got  %+v\n want %+v", base, href, got, want)
		}
	})
}

// TestPlainLinks pins which links take the slicing path.
func TestPlainLinks(t *testing.T) {
	lk, err := newLinker("http://a.example/dir/x.html")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		href, want string
		typ        pre.Link
	}{
		{"http://a.example/y.html", "http://a.example/y.html", pre.Local},
		{"https://a.example", "https://a.example", pre.Local},
		{"http://b.example/~u/y.html", "http://b.example/~u/y.html", pre.Global},
		{"/members.html", "http://a.example/members.html", pre.Local},
		{"/", "http://a.example/", pre.Local},
	}
	for _, c := range cases {
		if _, _, ok := plainAbs(c.href); !ok && !plainPath(c.href) {
			t.Errorf("%q is not plain", c.href)
		}
		if a := lk.anchor(c.href); a.Href != c.want || a.Type != c.typ || a.Base != "http://a.example/dir/x.html" {
			t.Errorf("anchor(%q) = %+v, want Href %q, Type %v", c.href, a, c.want, c.typ)
		}
	}
	for _, href := range []string{"y.html", "#top", "/y.html?q", "/a/./b", "/a/.b", "//b.example/", "/%7E", "http://B.example/", "http://a.example:80/"} {
		if _, _, ok := plainAbs(href); ok || plainPath(href) {
			t.Errorf("%q taken as plain", href)
		}
	}
	if lk.parsed != nil {
		t.Error("plain links parsed the base with net/url")
	}
}
