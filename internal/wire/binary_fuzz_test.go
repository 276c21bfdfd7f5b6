package wire

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mem"
)

// fzReader derives protocol messages deterministically from fuzz input, so
// the coverage engine steers message shape through the byte stream.
type fzReader struct {
	b []byte
}

func (r *fzReader) u8() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *fzReader) i64() int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.u8())
	}
	return int64(v)
}

// str takes raw input bytes, valid UTF-8 or not.
func (r *fzReader) str() string {
	n := int(r.u8()) % 16
	if n > len(r.b) {
		n = len(r.b)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// value covers every float bit pattern, NaNs and infinities included.
func (r *fzReader) value() mem.Value {
	switch r.u8() % 5 {
	case 0:
		return mem.Null()
	case 1:
		return mem.Int(r.i64())
	case 2:
		return mem.Float(math.Float64frombits(uint64(r.i64())))
	case 3:
		return mem.Str(r.str())
	default:
		return mem.Bool(r.u8()%2 == 1)
	}
}

func (r *fzReader) row() mem.Row {
	n := int(r.u8()) % 5
	if n == 0 {
		return nil
	}
	out := make(mem.Row, n)
	for i := range out {
		out[i] = r.value()
	}
	return out
}

func (r *fzReader) strs() []string {
	n := int(r.u8()) % 4
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *fzReader) record() engine.UpdateRecord {
	op := engine.OpInsert
	if r.u8()%2 == 1 {
		op = engine.OpDelete
	}
	return engine.UpdateRecord{
		LSN:     r.i64(),
		Time:    time.Unix(0, r.i64()),
		Table:   r.str(),
		Op:      op,
		Columns: r.strs(),
		Row:     r.row(),
		Trace:   r.i64(),
		Span:    r.i64(),
	}
}

func sameRows(a, b []mem.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameRecords(a, b []engine.UpdateRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.LSN != y.LSN || !x.Time.Equal(y.Time) || x.Table != y.Table || x.Op != y.Op ||
			!reflect.DeepEqual(x.Columns, y.Columns) || !sameRow(x.Row, y.Row) ||
			x.Trace != y.Trace || x.Span != y.Span {
			return false
		}
	}
	return true
}

// FuzzBinaryCodecRoundTrip checks two properties of the codec: encode→decode
// is the bit-exact identity for Request and Response (records, NaN payloads
// and invalid UTF-8 included), and the decoder never panics on arbitrary
// payload bytes.
func FuzzBinaryCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("hello wire codec seed with some text and \xff bytes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fzReader{b: data}

		req := Request{
			Op:       OpQuery + Op(r.u8())%(OpSubscribeLog-OpQuery+1),
			Query:    r.str(),
			LSN:      r.i64(),
			StmtID:   r.i64(),
			Args:     r.row(),
			LogEpoch: r.i64(),
		}
		var reqBack Request
		if err := parseRequest(appendRequest(nil, &req), &reqBack); err != nil {
			t.Fatalf("decode request: %v", err)
		}
		if req.Op != reqBack.Op || req.Query != reqBack.Query || req.LSN != reqBack.LSN ||
			req.StmtID != reqBack.StmtID || !sameRow(req.Args, reqBack.Args) || req.LogEpoch != reqBack.LogEpoch {
			t.Fatalf("request roundtrip:\n in  %+v\n out %+v", req, reqBack)
		}

		var rows []mem.Row
		if n := int(r.u8()) % 3; n > 0 {
			rows = make([]mem.Row, n)
			for i := range rows {
				rows[i] = r.row()
			}
		}
		var recs []engine.UpdateRecord
		if n := int(r.u8()) % 3; n > 0 {
			recs = make([]engine.UpdateRecord, n)
			for i := range recs {
				recs[i] = r.record()
			}
		}
		resp := Response{
			Error:        r.str(),
			Columns:      r.strs(),
			Rows:         rows,
			RowsAffected: int(int32(r.i64())),
			Records:      recs,
			Truncated:    r.u8()%2 == 1,
			NextLSN:      r.i64(),
			FirstLSN:     r.i64(),
			LogEpoch:     r.i64(),
			StmtID:       r.i64(),
			NumArgs:      int(r.u8()),
		}
		var respBack Response
		if err := parseResponse(appendResponse(nil, &resp), &respBack); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if !sameRows(resp.Rows, respBack.Rows) || !sameRecords(resp.Records, respBack.Records) {
			t.Fatalf("response rows/records roundtrip:\n in  %+v\n out %+v", resp, respBack)
		}
		resp.Rows, resp.Records, respBack.Rows, respBack.Records = nil, nil, nil, nil
		if !reflect.DeepEqual(resp, respBack) {
			t.Fatalf("response roundtrip:\n in  %+v\n out %+v", resp, respBack)
		}

		// The decoder must reject or accept arbitrary bytes without panicking
		// (and without huge allocations — count() bounds them by frame size).
		var junkReq Request
		_ = parseRequest(data, &junkReq)
		var junkResp Response
		_ = parseResponse(data, &junkResp)
	})
}
