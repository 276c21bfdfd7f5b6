package sqlparser

import "testing"

// TestPrinterQuotesIdentifiers: a quoted identifier that would not lex back
// as itself unquoted — a digit-led name, an empty name, a keyword, a name
// with a space or a quote — prints quoted, so print → parse → print is a
// fixed point. Each input is one the parser round-trip fuzz target found.
func TestPrinterQuotesIdentifiers(t *testing.T) {
	cases := []struct{ src, want string }{
		{`SELECT"0"`, `SELECT "0"`},
		{`UPDATE A SET A=""`, `UPDATE A SET A = ""`},
		{`SELECT "select" FROM t`, `SELECT "select" FROM t`},
		{`SELECT "a b" FROM t`, `SELECT "a b" FROM t`},
		{`SELECT "say ""hi""" FROM "t.u" AS "from"`, `SELECT "say ""hi""" FROM "t.u" AS "from"`},
		{`INSERT INTO "order" ("1st", b) VALUES (1, 2)`, `INSERT INTO "order" ("1st", b) VALUES (1, 2)`},
		{`SELECT "a b"(x), count(*) FROM t`, `SELECT "A B"(x), COUNT(*) FROM t`},
		{`CREATE INDEX "" ON "t t" ("c")`, `CREATE INDEX "" ON "t t" (c)`},
		{`SELECT "Car"."model" FROM "Car"`, `SELECT Car.model FROM Car`},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		got := stmt.String()
		if got != c.want {
			t.Errorf("print(%q) = %q, want %q", c.src, got, c.want)
			continue
		}
		again, err := Parse(got)
		if err != nil {
			t.Errorf("printed %q does not re-parse: %v", got, err)
			continue
		}
		if again.String() != got {
			t.Errorf("print is not a fixed point: %q then %q", got, again.String())
		}
	}
}

// TestShippedSQLFingerprintsUnchanged: quoting only the identifiers that
// need it leaves the canonical fingerprint of ordinary SQL byte-identical.
// The statements are the shapes internal/demoapp and examples/ send (with
// sample literals), and the fingerprints are the ones the printer produced
// before it quoted anything.
func TestShippedSQLFingerprintsUnchanged(t *testing.T) {
	cases := []struct{ sql, fingerprint string }{
		// internal/demoapp: schema, servlets, update generators.
		{"CREATE TABLE small (id INT PRIMARY KEY, cat INT, val TEXT)", "create table small (id int primary key, cat int, val text)"},
		{"CREATE TABLE large (id INT PRIMARY KEY, cat INT, val TEXT)", "create table large (id int primary key, cat int, val text)"},
		{"CREATE INDEX small_cat ON small (cat)", "create index small_cat on small (cat)"},
		{"CREATE INDEX large_cat ON large (cat)", "create index large_cat on large (cat)"},
		{"INSERT INTO small VALUES (0, 0, 'v410'), (1, 1, 'v57')", "insert into small values ($1, $2, $3), ($4, $5, $6)"},
		{"SELECT id, cat, val FROM small WHERE cat = 3", "select id, cat, val from small where cat = $1"},
		{"SELECT id, cat, val FROM large WHERE cat = 3", "select id, cat, val from large where cat = $1"},
		{"SELECT small.id, large.id, small.val FROM small, large WHERE small.cat = large.cat AND small.cat = 3 ORDER BY small.id LIMIT 200",
			"select small.id, large.id, small.val from small, large where small.cat = large.cat and small.cat = $1 order by small.id limit $2"},
		{"INSERT INTO large VALUES (20001, 4, 'u17')", "insert into large values ($1, $2, $3)"},
		{"DELETE FROM small WHERE id = 12", "delete from small where id = $1"},
		{"INSERT INTO large VALUES (31000000, 3, 'f31000000')", "insert into large values ($1, $2, $3)"},
		// examples/carsite.
		{"CREATE TABLE Car (maker TEXT, model TEXT, price FLOAT)", "create table car (maker text, model text, price float)"},
		{"CREATE TABLE Mileage (model TEXT, EPA INT)", "create table mileage (model text, epa int)"},
		{"INSERT INTO Car VALUES ('Toyota', 'Corolla', 15000), ('Honda', 'Civic', 16000), ('BMW', 'M3', 70000)",
			"insert into car values ($1, $2, $3), ($4, $5, $6), ($7, $8, $9)"},
		{"INSERT INTO Mileage VALUES ('Corolla', 33), ('Civic', 31), ('M3', 19), ('Avalon', 26)",
			"insert into mileage values ($1, $2), ($3, $4), ($5, $6), ($7, $8)"},
		{"SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage WHERE Car.model = Mileage.model AND Car.price > $1",
			"select car.maker, car.model, car.price, mileage.epa from car, mileage where car.model = mileage.model and car.price > $1"},
		{"INSERT INTO Car VALUES ('Mitsubishi', 'Eclipse', 20000)", "insert into car values ($1, $2, $3)"},
		// examples/newsstand.
		{"CREATE TABLE articles (id INT PRIMARY KEY, section INT, title TEXT, clicks INT)",
			"create table articles (id int primary key, section int, title text, clicks int)"},
		{"INSERT INTO articles VALUES (0, 0, 'story 0', 81), (1, 1, 'story 1', 887)",
			"insert into articles values ($1, $2, $3, $4), ($5, $6, $7, $8)"},
		{"SELECT title, clicks FROM articles WHERE section = 1 ORDER BY clicks DESC LIMIT 10",
			"select title, clicks from articles where section = $1 order by clicks desc limit $2"},
		{"INSERT INTO articles VALUES (401, 2, 'breaking 401', 900)", "insert into articles values ($1, $2, $3, $4)"},
		{"UPDATE articles SET clicks = clicks + 7 WHERE id = 12", "update articles set clicks = clicks + $1 where id = $2"},
		// examples/quickstart.
		{"CREATE TABLE products (id INT PRIMARY KEY, name TEXT, price FLOAT, stock INT)",
			"create table products (id int primary key, name text, price float, stock int)"},
		{"INSERT INTO products VALUES (1, 'espresso machine', 299.00, 12), (2, 'burr grinder', 129.00, 30), (3, 'gooseneck kettle', 49.00, 0)",
			"insert into products values ($1, $2, $3, $4), ($5, $6, $7, $8), ($9, $10, $11, $12)"},
		{"SELECT name, price FROM products WHERE stock > 0 AND price <= 300", "select name, price from products where stock > $1 and price <= $2"},
		{"UPDATE products SET stock = 25 WHERE id = 3", "update products set stock = $1 where id = $2"},
		{"INSERT INTO products VALUES (4, 'lever machine', 1900.00, 3)", "insert into products values ($1, $2, $3, $4)"},
	}
	for _, c := range cases {
		if got := TemplateKey(MustParse(c.sql)); got != c.fingerprint {
			t.Errorf("fingerprint of %q = %q, want %q", c.sql, got, c.fingerprint)
		}
	}
}
