// Package webserver hosts the documents of one web site. A WEBDIS query
// server reads documents from its co-located Host directly (the paper's
// central tenet: "no web resource is ever downloaded to perform a query
// operation over it"), while remote parties — the centralized data-shipping
// baseline — must fetch them over the transport, paying the network cost
// the distributed engine avoids.
package webserver

import (
	"fmt"
	"net"
	"sync"

	"webdis/internal/netsim"
	"webdis/internal/webgraph"
	"webdis/internal/wire"
)

// Suffix appended to a host name to form its document-service endpoint.
const Suffix = "/web"

// Endpoint returns the transport endpoint name of host's document service.
func Endpoint(host string) string { return host + Suffix }

// Host serves the documents of one site.
type Host struct {
	site string
	web  *webgraph.Web

	mu      sync.Mutex
	serving *netsim.Serving
}

// NewHost returns a document host for site, backed by the given web.
func NewHost(site string, web *webgraph.Web) *Host {
	return &Host{site: site, web: web}
}

// Site returns the host name served.
func (h *Host) Site() string { return h.site }

// URLs returns the URLs of all documents at this site.
func (h *Host) URLs() []string { return h.web.URLsAt(h.site) }

// Get returns the raw content of the document at url. It fails for
// documents of other sites: a host only ever serves its own resources.
func (h *Host) Get(url string) ([]byte, error) {
	if webgraph.Host(url) != h.site {
		return nil, fmt.Errorf("webserver: %s does not host %s", h.site, url)
	}
	content, ok := h.web.HTML(url)
	if !ok {
		return nil, fmt.Errorf("webserver: no document at %s", url)
	}
	return content, nil
}

// Start begins serving fetch requests on the transport under
// Endpoint(site). It returns immediately; Stop shuts the service down.
func (h *Host) Start(tr netsim.Transport) error {
	ln, err := tr.Listen(Endpoint(h.site))
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.serving = netsim.Serve(ln, h.serve)
	h.mu.Unlock()
	return nil
}

// serve answers fetch requests on one connection until it closes.
func (h *Host) serve(c net.Conn) {
	conn := wire.NewFramed(c)
	for {
		msg, err := wire.Receive(conn)
		if err != nil {
			return
		}
		req, ok := msg.(*wire.FetchReq)
		if !ok {
			return
		}
		resp := &wire.FetchResp{URL: req.URL}
		content, err := h.Get(req.URL)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Content = content
		}
		if err := wire.Send(conn, resp); err != nil {
			return
		}
	}
}

// Stop closes the listener and every open fetch connection, and waits
// for in-flight requests.
func (h *Host) Stop() {
	h.mu.Lock()
	sv := h.serving
	h.serving = nil
	h.mu.Unlock()
	if sv != nil {
		sv.Close()
		sv.Wait()
	}
}

// Fetcher downloads documents over the transport — the data-shipping
// client side. Each Get opens one connection, like the original browsers
// and crawlers of the era.
type Fetcher struct {
	tr   netsim.Transport
	from string // caller endpoint name, for traffic attribution
}

// NewFetcher returns a Fetcher dialing from the named endpoint.
func NewFetcher(tr netsim.Transport, from string) *Fetcher {
	return &Fetcher{tr: tr, from: from}
}

// Get downloads the document at url from its home site.
func (f *Fetcher) Get(url string) ([]byte, error) {
	c, err := f.tr.Dial(f.from, Endpoint(webgraph.Host(url)))
	if err != nil {
		return nil, err
	}
	conn := wire.NewFramed(c)
	defer conn.Close()
	if err := wire.Send(conn, &wire.FetchReq{URL: url}); err != nil {
		return nil, err
	}
	msg, err := wire.Receive(conn)
	if err != nil {
		return nil, err
	}
	resp, ok := msg.(*wire.FetchResp)
	if !ok {
		return nil, fmt.Errorf("webserver: unexpected reply %T", msg)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("webserver: fetch %s: %s", url, resp.Err)
	}
	return resp.Content, nil
}
