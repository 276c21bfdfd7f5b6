package wire

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

// BenchmarkWireLogSince measures the feed hot path — pulling a batch of
// update-log records over a live TCP connection. ns/op is one full LogSince
// roundtrip for the batch; allocs/op is what decoding the records costs (the
// frame buffers themselves are pooled).
func BenchmarkWireLogSince(b *testing.B) {
	const batch = 256
	b.Run("codec=binary", func(b *testing.B) {
		db := engine.NewDatabase()
		if _, err := db.ExecScript(`CREATE TABLE kv (k TEXT PRIMARY KEY, v INT, w FLOAT);`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			if _, err := db.ExecSQL(fmt.Sprintf(
				"INSERT INTO kv VALUES ('key-%04d', %d, %d.5)", i, i, i)); err != nil {
				b.Fatal(err)
			}
		}
		s := NewServer(db)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		c, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		// Prime the connection.
		if _, _, _, err := c.LogSince(1); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recs, _, _, err := c.LogSince(1)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != batch {
				b.Fatalf("pulled %d records, want %d", len(recs), batch)
			}
		}
	})
}
