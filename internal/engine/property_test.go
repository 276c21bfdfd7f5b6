package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The engine's join planner uses hash-index probes when equality predicates
// allow it. These property tests check plan equivalence: the same random
// query against an indexed and an unindexed copy of the same data must
// produce identical result multisets.

func fingerprint(res *Result) string {
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x1e")
}

// buildPair seeds two identical databases, one with indexes.
func buildPair(t *testing.T, rng *rand.Rand) (indexed, plain *Database) {
	t.Helper()
	var script strings.Builder
	script.WriteString("CREATE TABLE r (id INT PRIMARY KEY, b INT, c TEXT);\n")
	script.WriteString("CREATE TABLE s (b INT, d INT);\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&script, "INSERT INTO r VALUES (%d, %d, '%c');\n", i, rng.Intn(6), 'a'+rune(rng.Intn(4)))
	}
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&script, "INSERT INTO s VALUES (%d, %d);\n", rng.Intn(6), rng.Intn(10))
	}
	src := script.String()
	indexed = NewDatabase()
	if _, err := indexed.ExecScript(src + "CREATE INDEX r_b ON r (b); CREATE INDEX s_b ON s (b);"); err != nil {
		t.Fatal(err)
	}
	plain = NewDatabase()
	if _, err := plain.ExecScript(src); err != nil {
		t.Fatal(err)
	}
	return indexed, plain
}

func randQueryForPair(rng *rand.Rand) string {
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	op := func() string { return ops[rng.Intn(len(ops))] }
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("SELECT * FROM r WHERE b = %d", rng.Intn(6))
	case 1:
		return fmt.Sprintf("SELECT id, c FROM r WHERE b = %d AND id %s %d", rng.Intn(6), op(), rng.Intn(30))
	case 2:
		return fmt.Sprintf("SELECT r.id, s.d FROM r, s WHERE r.b = s.b AND s.d %s %d", op(), rng.Intn(10))
	case 3:
		return fmt.Sprintf("SELECT r.id FROM r JOIN s ON r.b = s.b WHERE r.c = '%c'", 'a'+rune(rng.Intn(4)))
	case 4:
		return fmt.Sprintf("SELECT s.b, COUNT(*) FROM r, s WHERE r.b = s.b GROUP BY s.b HAVING COUNT(*) > %d", rng.Intn(5))
	case 5:
		return fmt.Sprintf("SELECT DISTINCT b FROM r WHERE id %s %d", op(), rng.Intn(30))
	case 6:
		return fmt.Sprintf("SELECT a.id, b2.id FROM r a, r b2 WHERE a.b = b2.b AND a.id %s b2.id", op())
	default:
		return fmt.Sprintf("SELECT r.id FROM r LEFT JOIN s ON r.b = s.b WHERE r.id %s %d", op(), rng.Intn(30))
	}
}

func TestQuickIndexPlanEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		indexed, plain := buildPair(t, rng)
		for q := 0; q < 30; q++ {
			sql := randQueryForPair(rng)
			r1, err1 := indexed.ExecSQL(sql)
			r2, err2 := plain.ExecSQL(sql)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed %d: %s: errors differ: %v vs %v", seed, sql, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if fingerprint(r1) != fingerprint(r2) {
				t.Fatalf("seed %d: %s:\nindexed %d rows, plain %d rows", seed, sql, len(r1.Rows), len(r2.Rows))
			}
		}
	}
}

// TestQuickDMLEquivalence applies the same random DML to both copies and
// re-checks equivalence, exercising index maintenance under churn.
func TestQuickDMLEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		indexed, plain := buildPair(t, rng)
		nextID := 1000
		for step := 0; step < 40; step++ {
			var sql string
			switch rng.Intn(4) {
			case 0:
				nextID++
				sql = fmt.Sprintf("INSERT INTO r VALUES (%d, %d, '%c')", nextID, rng.Intn(6), 'a'+rune(rng.Intn(4)))
			case 1:
				sql = fmt.Sprintf("DELETE FROM r WHERE b = %d AND id %% 3 = %d", rng.Intn(6), rng.Intn(3))
			case 2:
				sql = fmt.Sprintf("UPDATE r SET b = %d WHERE id %% 5 = %d", rng.Intn(6), rng.Intn(5))
			default:
				sql = fmt.Sprintf("INSERT INTO s VALUES (%d, %d)", rng.Intn(6), rng.Intn(10))
			}
			r1, err1 := indexed.ExecSQL(sql)
			r2, err2 := plain.ExecSQL(sql)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed %d: %s: errors differ: %v vs %v", seed, sql, err1, err2)
			}
			if err1 == nil && r1.RowsAffected != r2.RowsAffected {
				t.Fatalf("seed %d: %s: affected %d vs %d", seed, sql, r1.RowsAffected, r2.RowsAffected)
			}
			// Spot-check equivalence with a probing query.
			check := randQueryForPair(rng)
			c1, e1 := indexed.ExecSQL(check)
			c2, e2 := plain.ExecSQL(check)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("seed %d: %s: errors differ", seed, check)
			}
			if e1 == nil && fingerprint(c1) != fingerprint(c2) {
				t.Fatalf("seed %d after %s: %s diverged", seed, sql, check)
			}
		}
	}
}

// TestQuickUpdateLogReplay: replaying the update log against a fresh
// database reproduces the original table contents — the invariant that
// makes log-based invalidation (and the Δ tables) trustworthy.
func TestQuickUpdateLogReplay(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1300 + seed))
		db := NewDatabase()
		// The DELETE template below gets its hash index on a from template
		// analysis, so the log under replay is written by probing deletes;
		// the replay database has no index and scans.
		db.SetAutoIndex(true)
		if _, err := db.ExecScript("CREATE TABLE t (a INT, b TEXT)"); err != nil {
			t.Fatal(err)
		}
		mark := db.Log().NextLSN()
		for i := 0; i < 50; i++ {
			switch rng.Intn(3) {
			case 0, 1:
				db.ExecSQL(fmt.Sprintf("INSERT INTO t VALUES (%d, 'x%d')", rng.Intn(20), i))
			case 2:
				db.ExecSQL(fmt.Sprintf("DELETE FROM t WHERE a = %d", rng.Intn(20)))
			}
		}
		recs, truncated := db.Log().Since(mark)
		if truncated {
			t.Fatal("log truncated unexpectedly")
		}
		if st := db.IndexStats(); st.AutoHash != 1 || st.WriteProbes == 0 || st.WriteScans != 0 {
			t.Fatalf("seed %d: DELETE FROM t WHERE a = … did not run as index probes: %+v", seed, st)
		}

		// Replay into a fresh database as raw row operations.
		replay := NewDatabase()
		if _, err := replay.ExecScript("CREATE TABLE t (a INT, b TEXT)"); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Op == OpInsert {
				sql := fmt.Sprintf("INSERT INTO t VALUES (%s, %s)", rec.Row[0].SQL(), rec.Row[1].SQL())
				if _, err := replay.ExecSQL(sql); err != nil {
					t.Fatal(err)
				}
			} else {
				// Delete exactly one matching row.
				cond := fmt.Sprintf("a = %s AND b = %s", rec.Row[0].SQL(), rec.Row[1].SQL())
				res, err := replay.ExecSQL("SELECT COUNT(*) FROM t WHERE " + cond)
				if err != nil {
					t.Fatal(err)
				}
				n := res.Rows[0][0].I
				if n == 0 {
					t.Fatalf("seed %d: replay delete found no row for %s", seed, cond)
				}
				// Delete all and reinsert n-1 (multiset semantics).
				if _, err := replay.ExecSQL("DELETE FROM t WHERE " + cond); err != nil {
					t.Fatal(err)
				}
				for k := int64(0); k < n-1; k++ {
					replay.ExecSQL(fmt.Sprintf("INSERT INTO t VALUES (%s, %s)", rec.Row[0].SQL(), rec.Row[1].SQL()))
				}
			}
		}
		orig, _ := db.ExecSQL("SELECT a, b FROM t")
		got, _ := replay.ExecSQL("SELECT a, b FROM t")
		if fingerprint(orig) != fingerprint(got) {
			t.Fatalf("seed %d: replay diverged: %d vs %d rows", seed, len(orig.Rows), len(got.Rows))
		}
	}
}
