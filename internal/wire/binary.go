package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/mem"
)

// Framing: every frame, in both directions and from the first byte of a
// connection, is a 4-byte big-endian payload length followed by the payload.
// The payload encodes Request/Response field-by-field in a fixed order:
// varints for integers (zigzag where the field is signed),
// uvarint-length-prefixed strings, one kind-tag byte per value. Floats travel
// as their IEEE-754 bits and strings as raw bytes, so NaN, ±Inf, -0.0 and
// invalid UTF-8 arrive exactly as they left.
//
// There is deliberately no resynchronization: a corrupt length prefix or a
// payload that fails to decode leaves the stream position meaningless, so
// any decode error must drop the connection. Frames are built in and read
// into pooled buffers, so the steady state (the LogFeed stream in
// particular) allocates only for the decoded values themselves, not per
// frame.

// maxFrame caps a frame's payload. A length prefix beyond it is treated as
// stream corruption, not an allocation request.
const maxFrame = 64 << 20

// bufPool recycles frame buffers across connections and directions.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// Value kind tags.
const (
	tagNull = iota
	tagInt
	tagFloat
	tagString
	tagBool
)

// ---- encoding ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendValue(b []byte, v mem.Value) []byte {
	switch v.Kind {
	case mem.KindInt:
		b = append(b, tagInt)
		b = binary.AppendVarint(b, v.I)
	case mem.KindFloat:
		b = append(b, tagFloat)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case mem.KindString:
		b = append(b, tagString)
		b = appendString(b, v.S)
	case mem.KindBool:
		b = append(b, tagBool)
		b = appendBool(b, v.B)
	default:
		b = append(b, tagNull)
	}
	return b
}

func appendRow(b []byte, row mem.Row) []byte {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, v := range row {
		b = appendValue(b, v)
	}
	return b
}

func appendRecord(b []byte, r *engine.UpdateRecord) []byte {
	b = binary.AppendVarint(b, r.LSN)
	b = binary.AppendVarint(b, r.Time.UnixNano())
	b = appendString(b, r.Table)
	b = appendBool(b, r.Op != engine.OpInsert)
	b = appendStrings(b, r.Columns)
	b = appendRow(b, r.Row)
	b = binary.AppendVarint(b, r.Trace)
	b = binary.AppendVarint(b, r.Span)
	return b
}

func appendRequest(b []byte, req *Request) []byte {
	b = append(b, byte(req.Op))
	b = appendString(b, req.Query)
	b = binary.AppendVarint(b, req.LSN)
	b = binary.AppendVarint(b, req.StmtID)
	b = appendRow(b, req.Args)
	b = binary.AppendVarint(b, req.LogEpoch)
	return b
}

func appendResponse(b []byte, resp *Response) []byte {
	b = appendString(b, resp.Error)
	b = appendStrings(b, resp.Columns)
	b = binary.AppendUvarint(b, uint64(len(resp.Rows)))
	for _, row := range resp.Rows {
		b = appendRow(b, row)
	}
	b = binary.AppendVarint(b, int64(resp.RowsAffected))
	b = binary.AppendUvarint(b, uint64(len(resp.Records)))
	for i := range resp.Records {
		b = appendRecord(b, &resp.Records[i])
	}
	b = appendBool(b, resp.Truncated)
	b = binary.AppendVarint(b, resp.NextLSN)
	b = binary.AppendVarint(b, resp.FirstLSN)
	b = binary.AppendVarint(b, resp.LogEpoch)
	b = binary.AppendVarint(b, resp.StmtID)
	b = binary.AppendVarint(b, int64(resp.NumArgs))
	return b
}

// ---- decoding ----

// breader is a cursor over one frame payload. Decoded strings are copied out
// (the payload buffer returns to the pool when the frame is done).
type breader struct {
	b []byte
}

func (r *breader) u8() (byte, error) {
	if len(r.b) < 1 {
		return 0, io.ErrUnexpectedEOF
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

// flag reads a one-byte boolean; any byte but 0 or 1 is corruption.
func (r *breader) flag() (bool, error) {
	v, err := r.u8()
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, fmt.Errorf("wire: decode: bad flag byte %d", v)
	}
	return v == 1, nil
}

func (r *breader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: decode: bad uvarint")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *breader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: decode: bad varint")
	}
	r.b = r.b[n:]
	return v, nil
}

// count reads an element count and sanity-checks it against the bytes left
// (every element takes at least one byte), so a corrupt frame cannot demand
// an enormous allocation before the decode fails.
func (r *breader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)) {
		return 0, fmt.Errorf("wire: decode: count %d exceeds frame", v)
	}
	return int(v), nil
}

func (r *breader) str() (string, error) {
	n, err := r.count()
	if err != nil {
		return "", err
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *breader) strings() ([]string, error) {
	n, err := r.count()
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *breader) value() (mem.Value, error) {
	tag, err := r.u8()
	if err != nil {
		return mem.Value{}, err
	}
	switch tag {
	case tagNull:
		return mem.Null(), nil
	case tagInt:
		i, err := r.varint()
		return mem.Int(i), err
	case tagFloat:
		if len(r.b) < 8 {
			return mem.Value{}, io.ErrUnexpectedEOF
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
		r.b = r.b[8:]
		return mem.Float(f), nil
	case tagString:
		s, err := r.str()
		return mem.Str(s), err
	case tagBool:
		v, err := r.flag()
		return mem.Bool(v), err
	default:
		return mem.Value{}, fmt.Errorf("wire: decode: unknown value tag %d", tag)
	}
}

func (r *breader) row() (mem.Row, error) {
	n, err := r.count()
	if err != nil || n == 0 {
		return nil, err
	}
	out := make(mem.Row, n)
	for i := range out {
		if out[i], err = r.value(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *breader) record(rec *engine.UpdateRecord) error {
	var err error
	if rec.LSN, err = r.varint(); err != nil {
		return err
	}
	ns, err := r.varint()
	if err != nil {
		return err
	}
	rec.Time = time.Unix(0, ns)
	if rec.Table, err = r.str(); err != nil {
		return err
	}
	del, err := r.flag()
	if err != nil {
		return err
	}
	rec.Op = engine.OpInsert
	if del {
		rec.Op = engine.OpDelete
	}
	if rec.Columns, err = r.strings(); err != nil {
		return err
	}
	if rec.Row, err = r.row(); err != nil {
		return err
	}
	if rec.Trace, err = r.varint(); err != nil {
		return err
	}
	rec.Span, err = r.varint()
	return err
}

func parseRequest(b []byte, req *Request) error {
	r := breader{b: b}
	code, err := r.u8()
	if err != nil {
		return err
	}
	if code < byte(OpQuery) || code > byte(OpSubscribeLog) {
		return fmt.Errorf("wire: decode: unknown opcode %d", code)
	}
	req.Op = Op(code)
	if req.Query, err = r.str(); err != nil {
		return err
	}
	if req.LSN, err = r.varint(); err != nil {
		return err
	}
	if req.StmtID, err = r.varint(); err != nil {
		return err
	}
	if req.Args, err = r.row(); err != nil {
		return err
	}
	if req.LogEpoch, err = r.varint(); err != nil {
		return err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: decode: %d trailing bytes in request", len(r.b))
	}
	return nil
}

func parseResponse(b []byte, resp *Response) error {
	r := breader{b: b}
	var err error
	if resp.Error, err = r.str(); err != nil {
		return err
	}
	if resp.Columns, err = r.strings(); err != nil {
		return err
	}
	nrows, err := r.count()
	if err != nil {
		return err
	}
	if nrows > 0 {
		resp.Rows = make([]mem.Row, nrows)
		for i := range resp.Rows {
			if resp.Rows[i], err = r.row(); err != nil {
				return err
			}
		}
	}
	ra, err := r.varint()
	if err != nil {
		return err
	}
	resp.RowsAffected = int(ra)
	nrecs, err := r.count()
	if err != nil {
		return err
	}
	if nrecs > 0 {
		resp.Records = make([]engine.UpdateRecord, nrecs)
		for i := range resp.Records {
			if err = r.record(&resp.Records[i]); err != nil {
				return err
			}
		}
	}
	if resp.Truncated, err = r.flag(); err != nil {
		return err
	}
	if resp.NextLSN, err = r.varint(); err != nil {
		return err
	}
	if resp.FirstLSN, err = r.varint(); err != nil {
		return err
	}
	if resp.LogEpoch, err = r.varint(); err != nil {
		return err
	}
	if resp.StmtID, err = r.varint(); err != nil {
		return err
	}
	na, err := r.varint()
	if err != nil {
		return err
	}
	resp.NumArgs = int(na)
	if len(r.b) != 0 {
		return fmt.Errorf("wire: decode: %d trailing bytes in response", len(r.b))
	}
	return nil
}

// ---- framing ----

// codec frames one connection. Both sides of the protocol share it — a
// client writes requests and reads responses; a server does the reverse.
// Reads go through a bufio.Reader; writes issue one conn.Write per frame
// from a pooled buffer.
type codec struct {
	r *bufio.Reader
	w io.Writer
}

func newCodec(conn net.Conn) *codec {
	return &codec{r: bufio.NewReaderSize(conn, 32<<10), w: conn}
}

func (c *codec) writeFrame(fill func([]byte) []byte) error {
	bp := bufPool.Get().(*[]byte)
	b := fill(append((*bp)[:0], 0, 0, 0, 0))
	var err error
	if n := len(b) - 4; n > maxFrame {
		err = fmt.Errorf("wire: frame too large (%d bytes)", n)
	} else {
		binary.BigEndian.PutUint32(b[:4], uint32(n))
		_, err = c.w.Write(b)
	}
	*bp = b
	bufPool.Put(bp)
	return err
}

// readFrame reads one frame and hands its payload to parse. The length is
// checked against maxFrame before any buffer is sized, so garbage in the
// prefix (say, a peer speaking some other protocol) drops the connection
// without allocating.
func (c *codec) readFrame(parse func([]byte) error) error {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("wire: frame length %d exceeds limit", n)
	}
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < int(n) {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	_, err := io.ReadFull(c.r, buf)
	if err == nil {
		err = parse(buf)
	}
	bufPool.Put(bp)
	return err
}

func (c *codec) writeRequest(req *Request) error {
	return c.writeFrame(func(b []byte) []byte { return appendRequest(b, req) })
}

func (c *codec) writeResponse(resp *Response) error {
	return c.writeFrame(func(b []byte) []byte { return appendResponse(b, resp) })
}

func (c *codec) readRequest(req *Request) error {
	return c.readFrame(func(b []byte) error { return parseRequest(b, req) })
}

func (c *codec) readResponse(resp *Response) error {
	return c.readFrame(func(b []byte) error { return parseResponse(b, resp) })
}
