// Linkcheck is the paper's web-site maintenance application (Section
// 1.2): detect "floating links" — hyperlinks pointing at documents that
// no longer exist — by shipping a link-walking query across the site's
// servers instead of crawling the site. Every dangling destination shows
// up as a document-load error at its home server, which the deployment
// metrics expose.
package main

import (
	"fmt"
	"log"

	"webdis"
)

func main() {
	// A small web with deliberate rot: two floating links.
	web := webdis.NewWeb()
	home := web.NewPage("http://site.example/index.html", "Site")
	home.AddText("A site with some link rot.")
	home.AddLink("/docs.html", "Docs")
	home.AddLink("/old-news.html", "Old news") // floating: page was deleted

	docs := web.NewPage("http://site.example/docs.html", "Docs")
	docs.AddText("Documentation index.")
	docs.AddLink("/manual.html", "Manual")
	docs.AddLink("http://mirror.example/archive.html", "Mirror archive") // floating on another site

	web.NewPage("http://site.example/manual.html", "Manual").AddText("RTFM.")
	web.NewPage("http://mirror.example/index.html", "Mirror").AddText("Mirror home.")

	d, err := webdis.NewDeployment(webdis.Config{
		Web:  web,
		Exec: webdis.ExecConfig{Trace: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// Walk every link reachable from the homepage. The query needs no
	// predicate: reaching a node is what verifies it exists.
	q, err := d.Run(`
select d.url
from document d such that "http://site.example/index.html" N|(L|G)* d`, webdis.Forever)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("checked site http://site.example/ (%d pages in corpus)\n", web.NumPages())
	if n := d.Metrics().DocErrors.Load(); n == 0 {
		fmt.Println("no floating links found")
		return
	}
	fmt.Println("floating links detected:")
	for _, l := range d.Journey(q).Traversal() {
		if l.Action == "missing" {
			fmt.Println("  ", l.Node)
		}
	}
}
