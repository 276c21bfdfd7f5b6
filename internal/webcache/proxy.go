package webcache

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fragment"
	"repro/internal/httpx"
)

// Header names shared with the application server. Kept as local constants
// so the cache stays deployable without importing the app server (the
// paper's independence requirement, §2.1).
const (
	keyHeader     = "X-Cacheportal-Key"
	servletHeader = "X-Cacheportal-Servlet"
	// HitHeader marks responses served from this cache.
	HitHeader = "X-Cacheportal-Cache"
	// batchHeader marks an eject request whose body carries many keys,
	// newline-separated, so one round trip invalidates a whole batch.
	batchHeader = "X-Cacheportal-Batch"
)

// Proxy is the caching reverse proxy. It forwards misses to Origin,
// stores responses whose Cache-Control carries owner="cacheportal", and
// processes `Cache-Control: eject` invalidation requests (§4.2.4).
type Proxy struct {
	// Origin is the downstream base URL, e.g. "http://127.0.0.1:8080".
	Origin string
	// Cache is the page store.
	Cache *Cache
	// Client performs origin requests; the shared timeout-bearing client
	// (httpx.Default) when nil, so a hung origin turns into a bounded 502
	// instead of a goroutine pinned forever.
	Client *http.Client
	// HitDelay/MissExtraDelay optionally add artificial latency, used by
	// experiments to model cache and network distance.
	HitDelay       time.Duration
	MissExtraDelay time.Duration

	// MaxAge, when positive, expires entries older than this — the
	// time-based refresh of Oracle9i's web cache that the paper's
	// introduction critiques: it re-computes pages whether or not they
	// changed, yet still serves stale content for up to MaxAge. Zero means
	// entries live until invalidated (the CachePortal model).
	MaxAge time.Duration

	// Fragments switches the proxy to fragment-level caching and edge
	// assembly: full-page misses negotiate composite responses with the
	// origin (template + fragments, each stored under its own key), hits
	// assemble the page from cached fragments, and a missing fragment is
	// fetched alone — so a personalized page costs one private miss plus N
	// shared hits instead of a whole-page private miss. Off, the proxy
	// behaves exactly as before.
	Fragments bool
	// CookieAllow is the per-servlet cookie allowlist for request-derived
	// keys: for a servlet with an entry, only the listed cookie names
	// contribute to the pre-alias lookup key (an empty list means no cookie
	// does). Servlets without an entry keep the safe default — every cookie
	// keys, because until the canonical-key alias is learned the proxy
	// cannot know a cookie is ignored, and omitting one could let a
	// personalized page answer another user's request. The allowlist is the
	// operator's declaration that the listed servlets ignore everything
	// else (e.g. tracking cookies on a fully-shared page).
	CookieAllow map[string][]string

	// Cluster, when set, makes this proxy one node of the distributed
	// cache tier: GETs for slots this node doesn't own are forwarded one
	// hop to the owner, /debug/cluster serves and accepts the membership
	// view, and per-slot request counters feed the shard manager. Nil
	// keeps single-node behavior byte-identical.
	Cluster *ClusterNode
}

// NewProxy creates a proxy in front of origin.
func NewProxy(origin string, cache *Cache) *Proxy {
	return &Proxy{Origin: origin, Cache: cache}
}

func (p *Proxy) client() *http.Client {
	return httpx.Client(p.Client)
}

// ServeHTTP implements the proxy.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Invalidation request: an otherwise-normal request whose
	// Cache-Control contains the extended "eject" directive.
	if isEject(r) {
		// Ejects are always handled locally: in stream mode every node
		// applies the full eject feed; in routed-push mode the invalidator
		// already aimed at this node's keys.
		p.serveEject(w, r)
		return
	}

	if p.Cluster != nil {
		if r.URL.Path == cluster.DebugClusterPath {
			p.Cluster.ServeDebug(w, r)
			return
		}
		if r.Method == http.MethodGet && r.Header.Get(ForwardedHeader) == "" {
			if peer, local := p.Cluster.Route(r); !local {
				if p.forwardPeer(w, r, peer) {
					return
				}
				// Owner unreachable: answer from the origin ourselves, but
				// don't store — this node doesn't receive the key's ejects,
				// so a stored copy could go permanently stale.
				p.forwardStore(w, r, "", false)
				return
			}
		}
	}

	// Only GETs are served from (or admitted to) the cache.
	if r.Method != http.MethodGet {
		p.forward(w, r, "")
		return
	}
	servlet := servletFromPath(r.URL.Path)
	key := p.requestKey(r)
	if e, ok := p.Cache.Get(p.Cache.Resolve(key)); ok {
		switch {
		case p.MaxAge > 0 && time.Since(e.StoredAt) > p.MaxAge:
			// Time-based expiry: drop and refetch.
			p.Cache.Invalidate(e.Key)
			p.Cache.NoteServlet(entryServlet(e, servlet), false)
		case e.IsTemplate():
			if p.Fragments {
				p.serveAssembled(w, r, key, e)
				return
			}
			// Fragment mode was switched off under a populated cache: a
			// template is not a servable page, so treat it as a miss.
			p.Cache.Invalidate(e.Key)
			p.Cache.NoteServlet(entryServlet(e, servlet), false)
		default:
			p.Cache.NoteServlet(entryServlet(e, servlet), true)
			if p.HitDelay > 0 {
				time.Sleep(p.HitDelay)
			}
			w.Header().Set("Content-Type", e.ContentType)
			w.Header().Set(HitHeader, "hit")
			w.Header().Set(keyHeader, e.Key)
			w.WriteHeader(http.StatusOK)
			w.Write(e.Body)
			return
		}
		if p.MissExtraDelay > 0 {
			time.Sleep(p.MissExtraDelay)
		}
		p.forward(w, r, key)
		return
	}
	// Full-key miss (counted above). In fragment mode a first-time user can
	// still ride the shared skeleton: the cookieless request key is aliased
	// to the template when a composite is stored, so probe it quietly
	// (Lookup charges no second miss) — only template entries may answer
	// this cookie-blind path, never a legacy whole page.
	if p.Fragments {
		k0 := cookielessRequestKey(r)
		if e, ok := p.Cache.Lookup(p.Cache.Resolve(k0)); ok && e.IsTemplate() &&
			!(p.MaxAge > 0 && time.Since(e.StoredAt) > p.MaxAge) {
			// Learn the full-key alias now, so this user's next request
			// resolves to the template directly instead of re-missing here.
			p.Cache.Alias(key, e.Key)
			p.serveAssembled(w, r, key, e)
			return
		}
	}
	p.Cache.NoteServlet(servlet, false)
	if p.MissExtraDelay > 0 {
		time.Sleep(p.MissExtraDelay)
	}
	p.forward(w, r, key)
}

// entryServlet attributes a lookup to the entry's generating servlet,
// falling back to the path-derived name.
func entryServlet(e *Entry, fallback string) string {
	if e.Servlet != "" {
		return e.Servlet
	}
	return fallback
}

// servletFromPath extracts the servlet name from a URL path ("/name" or
// "/name/...") — the app server's routing rule, mirrored for accounting
// and the cookie allowlist.
func servletFromPath(path string) string {
	name := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	return name
}

// isEject reports whether the request carries Cache-Control: eject.
func isEject(r *http.Request) bool {
	for _, v := range r.Header.Values("Cache-Control") {
		for _, part := range strings.Split(v, ",") {
			if strings.TrimSpace(part) == "eject" {
				return true
			}
		}
	}
	return false
}

// ClearHeader, when set to "all" on an eject request, flushes the whole
// cache — the sledgehammer the invalidator reaches for after losing log
// entries, when precise invalidation is no longer possible.
const ClearHeader = "X-Cacheportal-Clear"

// serveEject removes the page named by the X-Cacheportal-Key header (or the
// request URL when absent) and reports the outcome. Batched ejects carry
// X-Cacheportal-Batch and list one key per line in the request body.
func (p *Proxy) serveEject(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get(keyHeader)
	removed := 0
	switch {
	case r.Header.Get(batchHeader) != "":
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "bad eject body: "+err.Error(), http.StatusBadRequest)
			return
		}
		var keys []string
		for _, line := range strings.Split(string(body), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				keys = append(keys, line)
			}
		}
		removed = p.Cache.InvalidateMany(keys)
	case r.Header.Get(ClearHeader) == "all":
		removed = p.Cache.Len()
		p.Cache.Clear()
	case key != "":
		// Resolve through the alias table: an eject may name a key the
		// cache knows only as an alias of the canonical entry.
		if p.Cache.Invalidate(p.Cache.Resolve(key)) {
			removed = 1
		}
	case r.Header.Get(servletHeader) != "":
		removed = p.Cache.InvalidateServlet(r.Header.Get(servletHeader))
	default:
		removed = p.Cache.InvalidatePrefix(cacheKeyForRequest(r))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ejected %d\n", removed)
}

// cacheKeyForRequest keys a request before the origin has told us its
// canonical key: host+path+sorted raw query+cookies. Cookies MUST be part
// of this key: the origin's key spec may project them away when they don't
// affect the page, but until the alias to the canonical key is learned the
// proxy cannot know that — and omitting them would let one user's
// personalized page answer another user's request. The origin's
// X-Cacheportal-Key takes precedence at store time; an alias links this
// request-derived key to it.
func cacheKeyForRequest(r *http.Request) string {
	return cookielessRequestKey(r) + cookieSuffix(r, nil, false)
}

// requestKey is cacheKeyForRequest filtered through the proxy's per-servlet
// cookie allowlist: servlets with an entry key only on the listed cookies,
// everyone else keeps the safe every-cookie-keys default.
func (p *Proxy) requestKey(r *http.Request) string {
	allow, filtered := p.allowFor(servletFromPath(r.URL.Path))
	return cookielessRequestKey(r) + cookieSuffix(r, allow, filtered)
}

// allowFor looks up the servlet's cookie allowlist; the second result
// reports whether one is configured at all (an empty configured list means
// "no cookie keys", which is different from "no allowlist").
func (p *Proxy) allowFor(servlet string) ([]string, bool) {
	if p.CookieAllow == nil {
		return nil, false
	}
	allow, ok := p.CookieAllow[servlet]
	return allow, ok
}

// cookielessRequestKey is the cookie-blind half of the request key. In
// fragment mode it doubles as the shared-skeleton lookup key: every session
// derives the same value, and an alias learned at composite-store time
// points it at the assembly template.
func cookielessRequestKey(r *http.Request) string {
	return r.Host + r.URL.Path + "?" + sortedEncode(r.URL.Query())
}

// cookieSuffix renders the "#name=value;…" cookie part of a request key.
// When filtered, only allowlisted names contribute; otherwise every cookie
// does (the personalization-safety default).
func cookieSuffix(r *http.Request, allow []string, filtered bool) string {
	cookies := r.Cookies()
	if len(cookies) == 0 {
		return ""
	}
	allowed := func(name string) bool {
		if !filtered {
			return true
		}
		for _, a := range allow {
			if a == name {
				return true
			}
		}
		return false
	}
	parts := make([]string, 0, len(cookies))
	for _, c := range cookies {
		if allowed(c.Name) {
			parts = append(parts, url.QueryEscape(c.Name)+"="+url.QueryEscape(c.Value))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	sort.Strings(parts)
	return "#" + strings.Join(parts, ";")
}

// privateLookupKey derives this request's lookup key for a private
// fragment of a template: the fragment key rooted at the (shared) template
// key plus the request's cookie identity. The canonical private key the
// origin names is rooted at the user's full page key instead; an alias
// learned at store time links the two. Using the template key as the root
// keeps derivation possible from the template entry alone.
func (p *Proxy) privateLookupKey(templateKey, name string, r *http.Request) string {
	allow, filtered := p.allowFor(servletFromPath(r.URL.Path))
	return fragment.Key(templateKey, name) + cookieSuffix(r, allow, filtered)
}

// ParseCookieAllow parses a -cookie-allow flag value of the form
// "servlet=cookie+cookie,servlet2=" into a Proxy.CookieAllow map (an empty
// cookie list meaning "no cookie keys for this servlet").
func ParseCookieAllow(s string) (map[string][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string][]string)
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, list, ok := strings.Cut(item, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("webcache: bad cookie-allow entry %q (want servlet=cookie+cookie)", item)
		}
		cookies := []string{}
		if list != "" {
			cookies = strings.Split(list, "+")
		}
		out[name] = cookies
	}
	return out, nil
}

// sortedEncode renders query parameters sorted by name, each component
// re-escaped. Escaping matters for correctness, not just form: r.URL.Query()
// unescapes values, so joining them raw would collide ?a=1&b=2 with
// ?a=1%26b%3D2 — one page's cache entry answering a different request.
func sortedEncode(q map[string][]string) string {
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]string, 0, len(q))
	for _, k := range keys {
		for _, v := range q[k] {
			vals = append(vals, url.QueryEscape(k)+"="+url.QueryEscape(v))
		}
	}
	return strings.Join(vals, "&")
}

// serveAssembled serves a page by splicing cached fragments into the
// cached assembly template. Shared fragments come straight from their
// canonical keys; private ones resolve through the alias table from a
// request-derived key. A missing fragment is fetched alone from the origin
// (one fragment body, not the whole page); if that fails the proxy falls
// back to a full forward. Per-servlet accounting counts the template and
// every fragment lookup, so the fragment-level hit ratio is observable.
func (p *Proxy) serveAssembled(w http.ResponseWriter, r *http.Request, requestKey string, tmpl *Entry) {
	servlet := entryServlet(tmpl, servletFromPath(r.URL.Path))
	p.Cache.NoteServlet(servlet, true) // the template itself was a hit
	bodies := make(map[string][]byte, len(tmpl.Refs))
	allHit := true
	for _, ref := range tmpl.Refs {
		fkey := ref.Key
		if ref.Private {
			fkey = p.Cache.Resolve(p.privateLookupKey(tmpl.Key, ref.Name, r))
		}
		if e, ok := p.Cache.Get(fkey); ok {
			if !(p.MaxAge > 0 && time.Since(e.StoredAt) > p.MaxAge) {
				p.Cache.NoteServlet(servlet, true)
				bodies[ref.Name] = e.Body
				continue
			}
			p.Cache.Invalidate(e.Key)
		}
		p.Cache.NoteServlet(servlet, false)
		allHit = false
		body, ok := p.fetchFragment(r, tmpl.Key, ref)
		if !ok {
			p.forward(w, r, requestKey)
			return
		}
		bodies[ref.Name] = body
	}
	page, err := fragment.Assemble(tmpl.Body, func(name string) ([]byte, bool) {
		b, ok := bodies[name]
		return b, ok
	})
	if err != nil {
		// The template references a fragment it has no ref for — a corrupt
		// entry. Drop it and refetch the page whole.
		p.Cache.Invalidate(tmpl.Key)
		p.forward(w, r, requestKey)
		return
	}
	if allHit && p.HitDelay > 0 {
		time.Sleep(p.HitDelay)
	}
	w.Header().Set("Content-Type", tmpl.ContentType)
	if allHit {
		w.Header().Set(HitHeader, "hit")
	} else {
		w.Header().Set(HitHeader, "partial")
	}
	w.Header().Set(keyHeader, tmpl.Key)
	w.WriteHeader(http.StatusOK)
	w.Write(page)
}

// fetchFragment asks the origin for one named fragment of the requested
// page (fragment.FragmentHeader), stores it when cacheable, and — for
// private fragments — learns the alias from this request's derived lookup
// key to the canonical per-user key the origin named.
func (p *Proxy) fetchFragment(r *http.Request, templateKey string, ref FragmentRef) ([]byte, bool) {
	url := p.Origin + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, false
	}
	req.Header = r.Header.Clone()
	req.Header.Del(fragment.CompositeHeader)
	req.Header.Set(fragment.FragmentHeader, ref.Name)
	req.Host = r.Host
	epoch := p.Cache.EjectEpoch()
	resp, err := p.client().Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	if cacheableResponse(resp) {
		if key := resp.Header.Get(keyHeader); key != "" {
			stored := p.Cache.PutSince(&Entry{
				Key:         key,
				Body:        body,
				ContentType: resp.Header.Get("Content-Type"),
				Servlet:     resp.Header.Get(servletHeader),
			}, epoch)
			if stored && ref.Private {
				p.Cache.Alias(p.privateLookupKey(templateKey, ref.Name, r), key)
			}
		}
	}
	return body, true
}

// serveComposite decodes a composite origin response, stores the template
// and every fragment under their own keys, learns the aliases that make
// later requests hit (this user's full request key and the cookieless key
// both lead to the template; each private fragment's derived lookup key
// leads to its canonical per-user key), and serves the assembled page. epoch
// is the cache's eject epoch from before the forward: a piece ejected since
// is served but not stored (Cache.PutSince), and no alias is learned for it.
func (p *Proxy) serveComposite(w http.ResponseWriter, r *http.Request, requestKey string, raw []byte, epoch uint64) error {
	comp, err := fragment.Decode(raw)
	if err != nil {
		return err
	}
	page, err := comp.Assemble()
	if err != nil {
		return err
	}
	refs := make([]FragmentRef, 0, len(comp.Fragments))
	for _, piece := range comp.Fragments {
		ref := FragmentRef{Name: piece.Name, Private: piece.Private}
		if !piece.Private {
			ref.Key = piece.Key
		}
		stored := p.Cache.PutSince(&Entry{
			Key:         piece.Key,
			Body:        piece.Body,
			ContentType: comp.ContentType,
			Servlet:     comp.Servlet,
		}, epoch)
		if stored && piece.Private {
			p.Cache.Alias(p.privateLookupKey(comp.TemplateKey, piece.Name, r), piece.Key)
		}
		refs = append(refs, ref)
	}
	if p.Cache.PutSince(&Entry{
		Key:         comp.TemplateKey,
		Body:        comp.Template,
		ContentType: comp.ContentType,
		Servlet:     comp.Servlet,
		Refs:        refs,
	}, epoch) {
		p.Cache.Alias(requestKey, comp.TemplateKey)
		p.Cache.Alias(cookielessRequestKey(r), comp.TemplateKey)
	}
	w.Header().Set("Content-Type", comp.ContentType)
	w.Header().Set(keyHeader, comp.TemplateKey)
	w.Header().Set(servletHeader, comp.Servlet)
	w.Header().Set(HitHeader, "miss")
	w.WriteHeader(http.StatusOK)
	w.Write(page)
	return nil
}

// forward proxies the request to the origin and caches eligible responses.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, requestKey string) {
	p.forwardStore(w, r, requestKey, true)
}

// forwardStore is forward with storage optional: the cluster fallback path
// (owner unreachable, serving off-owner) must not admit entries this node
// won't receive ejects for.
func (p *Proxy) forwardStore(w http.ResponseWriter, r *http.Request, requestKey string, store bool) {
	url := p.Origin + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequest(r.Method, url, r.Body)
	if err != nil {
		http.Error(w, "bad gateway: "+err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	req.Host = r.Host
	if p.Fragments && r.Method == http.MethodGet && store {
		// Negotiate a fragment-structured response; a whole-page origin (or
		// an uncacheable page) simply ignores the header and we fall back to
		// the plain store below. The no-store path asks for the plain page —
		// a composite it won't cache is pure overhead.
		req.Header.Set(fragment.CompositeHeader, fragment.CompositeAccept)
	}
	// An eject that lands between here and the store below overtook this
	// fill: the response is served but not stored (Cache.PutSince).
	epoch := p.Cache.EjectEpoch()
	resp, err := p.client().Do(req)
	if err != nil {
		http.Error(w, "bad gateway: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		http.Error(w, "bad gateway: "+err.Error(), http.StatusBadGateway)
		return
	}

	if store && resp.StatusCode == http.StatusOK && r.Method == http.MethodGet && cacheableResponse(resp) {
		if p.Fragments && resp.Header.Get(fragment.CompositeHeader) == fragment.CompositeYes {
			if err := p.serveComposite(w, r, requestKey, body, epoch); err != nil {
				http.Error(w, "bad gateway: "+err.Error(), http.StatusBadGateway)
			}
			return
		}
		key := resp.Header.Get(keyHeader)
		if key == "" {
			key = requestKey
		}
		if p.Cache.PutSince(&Entry{
			Key:         key,
			Body:        body,
			ContentType: resp.Header.Get("Content-Type"),
			Servlet:     resp.Header.Get(servletHeader),
		}, epoch) {
			// Remember how this raw request maps to the canonical page key so
			// later identical requests hit even when the origin's key spec
			// projects away some parameters.
			p.Cache.Alias(requestKey, key)
		}
	}

	for name, vals := range resp.Header {
		for _, v := range vals {
			w.Header().Add(name, v)
		}
	}
	w.Header().Set(HitHeader, "miss")
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// readBody reads an origin response's body whole, into a buffer sized from
// its Content-Length when that is known (and sane): io.ReadAll starts at
// 512 bytes and grows. A response to HEAD has no body, whatever length it
// announces.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.Request.Method == http.MethodHead {
		return nil, nil
	}
	if n := resp.ContentLength; n >= 0 && n <= 1<<20 {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(resp.Body)
}

// cacheableResponse reports whether the response is marked with the
// CachePortal owner token.
func cacheableResponse(resp *http.Response) bool {
	cc := resp.Header.Get("Cache-Control")
	if cc == "" {
		return false
	}
	lcc := strings.ToLower(cc)
	if strings.Contains(lcc, "no-cache") || strings.Contains(lcc, "no-store") {
		return false
	}
	return strings.Contains(lcc, `owner="`+CacheOwnerToken+`"`)
}

// CacheOwnerToken is the owner value this cache honours.
const CacheOwnerToken = "cacheportal"

// Eject sends an invalidation for key to a cache at addr. It is a plain
// HTTP request carrying the extended header, per §4.2.4.
func Eject(client *http.Client, cacheURL, key string) error {
	req, err := http.NewRequest(http.MethodGet, cacheURL+"/", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Cache-Control", "eject")
	req.Header.Set(keyHeader, key)
	return doEject(client, req)
}

// EjectKeys invalidates many keys at a remote cache in one request: a POST
// carrying the eject directive, the batch marker header, and one key per
// line in the body. The remote answers "ejected N" like single ejects.
func EjectKeys(client *http.Client, cacheURL string, keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	body := strings.NewReader(strings.Join(keys, "\n") + "\n")
	req, err := http.NewRequest(http.MethodPost, cacheURL+"/", body)
	if err != nil {
		return err
	}
	req.Header.Set("Cache-Control", "eject")
	req.Header.Set(batchHeader, "1")
	req.Header.Set("Content-Type", "text/plain; charset=utf-8")
	return doEject(client, req)
}

func doEject(client *http.Client, req *http.Request) error {
	resp, err := httpx.Client(client).Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("webcache: eject: status %d", resp.StatusCode)
	}
	return nil
}
