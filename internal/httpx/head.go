package httpx

import (
	"bufio"
	"bytes"
	"io"
	"net/url"
)

// MaxHeadBytes bounds a message head, start line through the blank line.
const MaxHeadBytes = 1 << 20

// HeadError is a malformed message head. A server answers it with 400.
type HeadError string

func (e HeadError) Error() string { return "httpx: " + string(e) }

// Head is one HTTP/1.x message head as it came off a connection: the raw
// bytes, which a relay forwards verbatim, and what framing and routing
// read from them. ReadRequest and ReadResponse scan the head once and
// accept only unambiguous framing: one Content-Length (or identical
// copies), or Transfer-Encoding: chunked alone on HTTP/1.1, never both,
// and no obs-fold lines. A Head is reused message after message; its byte
// slices alias Raw and are valid until the next read.
type Head struct {
	// Raw is the head as received, start line through the blank line.
	Raw []byte
	// Method and Target are a request's start-line fields.
	Method, Target []byte
	// Status is a response's status code.
	Status int
	// Minor is the protocol version's minor digit: HTTP/1.<Minor>.
	Minor int
	// Host is a request's Host header value, nil when it has none.
	Host []byte
	// ContentLength is the body length: a request without a length or
	// chunked framing has 0, a chunked message -1, and a response with
	// neither -1 too (its body ends with the connection).
	ContentLength int64
	// Chunked reports Transfer-Encoding: chunked.
	Chunked bool
	// Close reports that the connection ends after this message: a
	// Connection: close token, or HTTP/1.0 without keep-alive.
	Close bool
	// Expect is a request's Expect header value, nil when absent.
	Expect []byte

	startLen int // the start line's length without its line ending
	fields   []field
	uri      *url.URL // the parsed target, only when the fast scan cannot take it
	path     []byte   // the target's path when the fast scan takes it
	key      []byte   // RouteKey's scratch
}

// field is one header line, as offsets into Raw.
type field struct {
	start, colon, vstart, vend, end int
}

// ReadRequest reads and checks a request head. It returns io.EOF when the
// connection ends before the first byte, and a HeadError for a head a
// server must answer with 400. Whatever it accepts, http.ReadRequest
// accepts too, with the same method, Host, route key, ContentLength and
// chunked framing.
func (h *Head) ReadRequest(br *bufio.Reader) error {
	if err := h.read(br); err != nil {
		return err
	}
	line := h.Raw[:h.startLen]
	method, rest, ok1 := bytes.Cut(line, sp)
	target, proto, ok2 := bytes.Cut(rest, sp)
	if !ok1 || !ok2 || len(method) == 0 || len(target) == 0 {
		return HeadError("malformed request line")
	}
	for _, c := range method {
		if !validFieldByte(c) {
			return HeadError("invalid method")
		}
	}
	if string(method) == "CONNECT" {
		return HeadError("CONNECT is not served")
	}
	var ok bool
	if h.Minor, ok = parseVersion(proto); !ok {
		return HeadError("malformed HTTP version")
	}
	h.Method, h.Target = method, target
	if err := h.parseFields(); err != nil {
		return err
	}
	if h.Chunked && h.Minor == 0 {
		return HeadError("Transfer-Encoding on HTTP/1.0")
	}
	if h.Host == nil && h.Minor == 1 {
		return HeadError("missing Host header")
	}
	if err := h.parseTarget(); err != nil {
		return err
	}
	switch {
	case h.Chunked:
		h.ContentLength = -1
	case h.ContentLength < 0:
		h.ContentLength = 0
	}
	return nil
}

// ReadResponse reads and checks a response head. Interim 1xx heads are
// returned like final ones; the caller reads on.
func (h *Head) ReadResponse(br *bufio.Reader) error {
	if err := h.read(br); err != nil {
		return err
	}
	line := h.Raw[:h.startLen]
	proto, rest, _ := bytes.Cut(line, sp)
	var ok bool
	if h.Minor, ok = parseVersion(proto); !ok {
		return HeadError("malformed HTTP version")
	}
	code, _, _ := bytes.Cut(rest, sp)
	if len(code) != 3 {
		return HeadError("malformed status code")
	}
	for _, c := range code {
		if c < '0' || c > '9' {
			return HeadError("malformed status code")
		}
		h.Status = h.Status*10 + int(c-'0')
	}
	if h.Status < 100 {
		return HeadError("malformed status code")
	}
	return h.parseFields()
}

// Bodyless reports whether the response to a request with the given
// method carries no body whatever its head says: HEAD, 1xx, 204 and 304.
func (h *Head) Bodyless(method []byte) bool {
	return string(method) == "HEAD" || h.Status/100 == 1 || h.Status == 204 || h.Status == 304
}

// ExpectsContinue reports whether a request waits for 100 Continue before
// sending its body.
func (h *Head) ExpectsContinue() bool {
	return h.Minor == 1 && h.ContentLength != 0 && equalFold(h.Expect, "100-continue")
}

// IsMethod reports whether a request head's method is m.
func (h *Head) IsMethod(m string) bool { return string(h.Method) == m }

// RouteKey is the request's host plus decoded path: cluster.RequestRouteKey
// of net/http's parse of the same head.
func (h *Head) RouteKey() string {
	if h.uri != nil {
		host := h.uri.Host
		if host == "" {
			host = string(h.Host)
		}
		return host + h.uri.Path
	}
	h.key = append(append(h.key[:0], h.Host...), h.path...)
	return string(h.key)
}

// WriteWithout writes the head to w minus every header line named name
// (compared case-insensitively).
func (h *Head) WriteWithout(w *bufio.Writer, name string) {
	from := 0
	for _, f := range h.fields {
		if equalFold(h.Raw[f.start:f.colon], name) {
			w.Write(h.Raw[from:f.start])
			from = f.end
		}
	}
	w.Write(h.Raw[from:])
}

func (h *Head) reset() {
	if cap(h.Raw) > 64<<10 {
		h.Raw = nil // don't pin one huge head per idle connection
	}
	*h = Head{Raw: h.Raw[:0], fields: h.fields[:0], key: h.key, ContentLength: -1}
}

// read copies one head into Raw and records where its lines are.
func (h *Head) read(br *bufio.Reader) error {
	h.reset()
	lineStart := 0
	for {
		chunk, err := br.ReadSlice('\n')
		if len(h.Raw)+len(chunk) > MaxHeadBytes {
			return HeadError("message head larger than 1 MiB")
		}
		h.Raw = append(h.Raw, chunk...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if err == io.EOF {
				if len(h.Raw) == 0 {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
		end := len(h.Raw)
		content := trimEOL(h.Raw[lineStart:end])
		switch {
		case lineStart == 0:
			h.startLen = len(content)
		case len(content) == 0:
			return nil
		default:
			h.fields = append(h.fields, field{start: lineStart, vend: lineStart + len(content), end: end})
		}
		lineStart = end
	}
}

// parseFields checks every header line and picks out the ones framing and
// routing need.
func (h *Head) parseFields() error {
	var cl []byte
	te := 0
	keepAlive := false
	for i := range h.fields {
		f := &h.fields[i]
		line := h.Raw[f.start:f.vend]
		if line[0] == ' ' || line[0] == '\t' {
			return HeadError("obs-fold header line")
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return HeadError("malformed header line")
		}
		for _, c := range line[:colon] {
			if !validFieldByte(c) {
				return HeadError("invalid header name")
			}
		}
		for _, c := range line[colon+1:] {
			if !validValueByte(c) {
				return HeadError("invalid header value")
			}
		}
		f.colon = f.start + colon
		f.vstart = f.colon + 1
		for f.vstart < f.vend && isSpace(h.Raw[f.vstart]) {
			f.vstart++
		}
		for f.vend > f.vstart && isSpace(h.Raw[f.vend-1]) {
			f.vend--
		}
		name, value := line[:colon], h.Raw[f.vstart:f.vend]
		switch {
		case equalFold(name, "Host"):
			if h.Host != nil {
				return HeadError("too many Host headers")
			}
			for _, c := range value {
				if !validHostByte[c] {
					return HeadError("malformed Host header")
				}
			}
			h.Host = value
		case equalFold(name, "Content-Length"):
			if cl != nil {
				if !bytes.Equal(cl, value) {
					return HeadError("conflicting Content-Length headers")
				}
				continue
			}
			n, ok := parseLength(value)
			if !ok {
				return HeadError("bad Content-Length")
			}
			cl, h.ContentLength = value, n
		case equalFold(name, "Transfer-Encoding"):
			te++
			if te > 1 || !equalFold(value, "chunked") {
				return HeadError("unsupported transfer encoding")
			}
			h.Chunked = true
		case equalFold(name, "Connection"):
			h.Close = h.Close || hasToken(value, "close")
			keepAlive = keepAlive || hasToken(value, "keep-alive")
		case equalFold(name, "Expect"):
			h.Expect = value
		case equalFold(name, "Trailer"):
			// net/http refuses to take framing from a trailer.
			if hasToken(value, "Content-Length") || hasToken(value, "Transfer-Encoding") || hasToken(value, "Trailer") {
				return HeadError("framing header named as a trailer")
			}
		}
	}
	if h.Minor == 0 && !keepAlive {
		h.Close = true
	}
	if h.Chunked && cl != nil {
		return HeadError("both Content-Length and Transfer-Encoding")
	}
	return nil
}

// parseTarget checks a request target the way url.ParseRequestURI does.
// An origin-form target without control bytes or percent escapes in its
// path is taken as is; anything else goes through url.ParseRequestURI.
func (h *Head) parseTarget() error {
	t := h.Target
	if t[0] == '/' {
		fast := true
		path := t
		for i, c := range t {
			if c < ' ' || c == 0x7f {
				return HeadError("control byte in request target")
			}
			if c == '?' && len(path) == len(t) {
				path = t[:i]
			}
			if c == '%' && len(path) == len(t) {
				fast = false
			}
		}
		if fast {
			h.path = path
			return nil
		}
	}
	u, err := url.ParseRequestURI(string(t))
	if err != nil {
		return HeadError("malformed request target")
	}
	h.uri = u
	return nil
}

// parseVersion accepts HTTP/1.0 and HTTP/1.1, returning the minor digit.
func parseVersion(p []byte) (int, bool) {
	switch string(p) {
	case "HTTP/1.1":
		return 1, true
	case "HTTP/1.0":
		return 0, true
	}
	return 0, false
}

// parseLength parses a Content-Length value as strconv.ParseUint(v, 10, 63)
// does.
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

var (
	sp    = []byte{' '}
	comma = []byte{','}
)

// hasToken reports whether the comma-separated list v holds tok.
func hasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		var t []byte
		t, v, _ = bytes.Cut(v, comma)
		if equalFold(bytes.Trim(t, " \t"), tok) {
			return true
		}
	}
	return false
}

// trimEOL strips a line's "\n" and one "\r" before it.
func trimEOL(b []byte) []byte {
	b = b[:len(b)-1]
	if len(b) > 0 && b[len(b)-1] == '\r' {
		b = b[:len(b)-1]
	}
	return b
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' }

// equalFold reports whether b equals the ASCII string s, ignoring case.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// validFieldByte reports whether c may appear in a header name or method
// (an RFC 7230 token byte), as net/textproto checks it.
func validFieldByte(c byte) bool {
	const mask = 0 |
		(1<<(10)-1)<<'0' |
		(1<<(26)-1)<<'a' |
		(1<<(26)-1)<<'A' |
		1<<'!' | 1<<'#' | 1<<'$' | 1<<'%' | 1<<'&' | 1<<'\'' | 1<<'*' |
		1<<'+' | 1<<'-' | 1<<'.' | 1<<'^' | 1<<'_' | 1<<'`' | 1<<'|' | 1<<'~'
	return ((uint64(1)<<c)&(mask&(1<<64-1)) |
		(uint64(1)<<(c-64))&(mask>>64)) != 0
}

// validValueByte reports whether c may appear in a header value: anything
// but control bytes other than HTAB.
func validValueByte(c byte) bool {
	return c >= ' ' && c != 0x7f || c == '\t'
}

// validHostByte marks the bytes a Host header may hold, as net/http's
// server checks them.
var validHostByte = func() (t [256]bool) {
	for _, c := range []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!$%&'()*+,-.:;=[]_~") {
		t[c] = true
	}
	return t
}()
