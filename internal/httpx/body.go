package httpx

import (
	"bufio"
	"errors"
	"io"
	"net/http/httputil"
)

// errChunkFraming is a malformed chunked body.
var errChunkFraming = errors.New("httpx: malformed chunked body")

// CopyBody copies the body h frames from src to dst: Content-Length bytes,
// the chunks as they came (only their data when dechunk), or, for a
// response with neither, everything up to the end of src. The caller rules
// out bodyless responses first (Head.Bodyless).
func CopyBody(dst *bufio.Writer, src *bufio.Reader, h *Head, dechunk bool) error {
	switch {
	case h.Chunked:
		return copyChunked(dst, src, !dechunk)
	case h.ContentLength >= 0:
		return copyN(dst, src, h.ContentLength)
	}
	_, err := src.WriteTo(dst)
	return err
}

// copyN copies n bytes from src's buffer to dst's without an intermediate
// buffer.
func copyN(dst *bufio.Writer, src *bufio.Reader, n int64) error {
	for n > 0 {
		if _, err := src.Peek(1); err != nil {
			return unexpected(err)
		}
		k := src.Buffered()
		if int64(k) > n {
			k = int(n)
		}
		b, _ := src.Peek(k)
		if _, err := dst.Write(b); err != nil {
			return err
		}
		src.Discard(k)
		n -= int64(k)
	}
	return nil
}

// copyChunked copies a chunked body through its trailer section, framing
// included when raw.
func copyChunked(dst *bufio.Writer, src *bufio.Reader, raw bool) error {
	frame := func(line []byte) error {
		if !raw {
			return nil
		}
		_, err := dst.Write(line)
		return err
	}
	for {
		line, err := readLine(src)
		if err != nil {
			return err
		}
		size, ok := parseChunkSize(trimEOL(line))
		if !ok {
			return errChunkFraming
		}
		if err := frame(line); err != nil {
			return err
		}
		if size == 0 {
			break
		}
		if err := copyN(dst, src, size); err != nil {
			return err
		}
		if line, err = readLine(src); err != nil {
			return err
		}
		if len(trimEOL(line)) != 0 {
			return errChunkFraming
		}
		if err := frame(line); err != nil {
			return err
		}
	}
	for { // the trailer section, through its blank line
		line, err := readLine(src)
		if err != nil {
			return err
		}
		if err := frame(line); err != nil {
			return err
		}
		if len(trimEOL(line)) == 0 {
			return nil
		}
	}
}

// readLine returns src's next line, line ending included. The slice is
// valid until src's next read.
func readLine(src *bufio.Reader) ([]byte, error) {
	line, err := src.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errChunkFraming
	}
	return line, unexpected(err)
}

// parseChunkSize parses a chunk-size line: hex digits, then optional
// whitespace and chunk extensions.
func parseChunkSize(line []byte) (int64, bool) {
	var n int64
	i := 0
	for ; i < len(line); i++ {
		c := line[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			goto rest
		}
		if i == 15 {
			return 0, false
		}
		n = n<<4 | int64(c)
	}
rest:
	if i == 0 {
		return 0, false
	}
	for ; i < len(line); i++ {
		if c := line[i]; c == ';' {
			return n, true
		} else if !isSpace(c) {
			return 0, false
		}
	}
	return n, true
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// body is the request body a Server hands its handler.
type body struct {
	br      *bufio.Reader
	r       io.Reader // an io.LimitedReader, or httputil's chunked reader
	chunked bool
	done    bool
}

func newBody(br *bufio.Reader, h *Head) *body {
	if h.Chunked {
		return &body{br: br, r: httputil.NewChunkedReader(br), chunked: true}
	}
	return &body{br: br, r: &io.LimitedReader{R: br, N: h.ContentLength}}
}

func (b *body) Read(p []byte) (int, error) {
	if b.done {
		return 0, io.EOF
	}
	n, err := b.r.Read(p)
	if err == io.EOF {
		if lr, ok := b.r.(*io.LimitedReader); ok && lr.N > 0 {
			return n, io.ErrUnexpectedEOF
		}
		if b.chunked {
			// httputil's reader stops at the last chunk: the trailer
			// section is still to come.
			for {
				line, lerr := readLine(b.br)
				if lerr != nil {
					return n, lerr
				}
				if len(trimEOL(line)) == 0 {
					break
				}
			}
		}
		b.done = true
	}
	return n, err
}

func (b *body) Close() error { return nil }

// maxDrain is how much of a body its handler left unread the server reads
// past to keep the connection; past it, the connection closes.
const maxDrain = 256 << 10

// drain reads what the handler left of the body, reporting whether the
// connection can carry another request.
func (b *body) drain() bool {
	n, err := io.CopyN(io.Discard, b, maxDrain+1)
	return err == io.EOF && n <= maxDrain
}
