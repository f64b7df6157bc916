package htmlx

import (
	"fmt"
	"net/url"
	"strings"

	"webdis/internal/pre"
)

// linker classifies the hrefs of one page against its URL.
//
// Most links of a generated or hand-written web are plain: an absolute
// http:// or https:// URL with a lower-case host, or a root-relative path,
// whose path has no query, fragment, escape or dot-segment. net/url would
// hand such a link back unchanged (absolute) or behind the base's
// scheme://host (root-relative), so a plain link against a plain base is
// resolved and classified by slicing, with no allocation beyond that
// concatenation. Everything else goes through classify and net/url.
type linker struct {
	base   string   // the Base column: the page URL as net/url writes it
	origin string   // scheme://host of a plain base; "" when the base is not plain
	host   string   // the host of a plain base
	parsed *url.URL // the base as net/url reads it; parsed on first use
}

func newLinker(baseURL string) (linker, error) {
	if hostAt, hostEnd, ok := plainAbs(baseURL); ok {
		return linker{base: baseURL, origin: baseURL[:hostEnd], host: baseURL[hostAt:hostEnd]}, nil
	}
	u, err := url.Parse(baseURL)
	if err != nil {
		return linker{}, fmt.Errorf("htmlx: bad document URL %q: %w", baseURL, err)
	}
	return linker{base: u.String(), parsed: u}, nil
}

// anchor resolves href (entities decoded) and assigns its link category.
func (l *linker) anchor(href string) Anchor {
	if l.origin != "" {
		if hostAt, hostEnd, ok := plainAbs(href); ok {
			typ := pre.Global
			if href[hostAt:hostEnd] == l.host {
				typ = pre.Local
			}
			return Anchor{Base: l.base, Href: href, Type: typ}
		}
		if href != "" && plainPath(href) { // root-relative
			return Anchor{Base: l.base, Href: l.origin + href, Type: pre.Local}
		}
		if l.parsed == nil {
			l.parsed, _ = url.Parse(l.base) // a plain URL always parses
		}
	}
	return classify(l.parsed, l.base, href)
}

// plainAbs reports whether s is a plain absolute URL: "http://" or
// "https://", a non-empty host of [a-z0-9.-], then a plain path. It
// returns the offsets of the host within s.
func plainAbs(s string) (hostAt, hostEnd int, ok bool) {
	switch {
	case strings.HasPrefix(s, "http://"):
		hostAt = len("http://")
	case strings.HasPrefix(s, "https://"):
		hostAt = len("https://")
	default:
		return 0, 0, false
	}
	hostEnd = hostAt
	for hostEnd < len(s) && isHostByte(s[hostEnd]) {
		hostEnd++
	}
	if hostEnd == hostAt || !plainPath(s[hostEnd:]) {
		return 0, 0, false
	}
	return hostAt, hostEnd, true
}

// plainPath reports whether p is empty or a rooted path of [A-Za-z0-9-_./~]
// in which no segment starts with '.' and none but the last is empty.
func plainPath(p string) bool {
	if p == "" {
		return true
	}
	if p[0] != '/' {
		return false
	}
	for i := 0; i < len(p); i++ {
		switch c := p[i]; {
		case c == '/':
			if i+1 < len(p) && (p[i+1] == '.' || p[i+1] == '/') {
				return false
			}
		case !isPathByte(c):
			return false
		}
	}
	return true
}

func isHostByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '-'
}

func isPathByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '-' || c == '_' || c == '.' || c == '/' || c == '~'
}

// classify resolves href against base with net/url and assigns the WEBDIS
// link category: interior if the destination is within the same resource
// (a fragment), local if it is on the same server, global otherwise. It is
// the general path and the definition the plain path is fuzzed against.
func classify(base *url.URL, baseStr, href string) Anchor {
	a := Anchor{Base: baseStr, Href: href}
	if strings.HasPrefix(href, "#") {
		a.Type = pre.Interior
		a.Href = baseStr + href
		return a
	}
	ref, err := url.Parse(href)
	if err != nil {
		a.Type = pre.Global
		return a
	}
	res := base.ResolveReference(ref)
	a.Href = res.String()
	switch {
	case res.Host == base.Host && res.Path == base.Path && res.Fragment != "":
		a.Type = pre.Interior
	case res.Host == base.Host:
		a.Type = pre.Local
	default:
		a.Type = pre.Global
	}
	return a
}
