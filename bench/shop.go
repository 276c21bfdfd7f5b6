package main

import (
	"fmt"
	"strconv"
	"strings"

	cacheportal "repro"
)

// The shop is the site under test: the paper's two-table application
// (§5.2.1) scaled so that its page space exceeds any cache. The category is
// a path segment ("/light/417"), not a query parameter, because the cache
// tier places keys by host+path: with "?cat=" every category of a servlet
// would land on one node and the tier would not share the load.
//
// Sizes. The update log and the feed buffer hold 65,536 records and NewSite
// waits for the feed to replay the seed, so the seed stays below that:
// 520 × (20 + 100) = 62,400 rows. With these row counts a heavy miss (a
// 2,000-tuple join, sorted) costs about ten light misses.
const (
	smallPerCat = 20
	largePerCat = 100
	// hotCategories is the prefix of the category domain that read_hot and
	// the update streams draw from (Zipf); homeCategories bounds the
	// personalised pages, whose private trims cost one entry per session.
	hotCategories  = 16
	homeCategories = 2
	sessions       = 32
	// canaryCategories, the last of the domain, are reserved for
	// commit-to-eject probes; no read or update stream touches them.
	canaryCategories = 8
	// heavyLimit is the heavy page's row cap.
	heavyLimit = 40

	source = "db"
)

// categories is the join attribute's domain and cacheCapacity each of the
// three nodes' entry bound; -short shrinks both. A cacheable page takes two
// entries (template + rows fragment), so the tier holds 384 entries, the
// cold key space (512 readable categories × 3 pages × 2) is 8× that, and the
// hot set (16 × 3 × 2 + 2 × (3 + 32) = 166 entries) fits more than twice.
var (
	categories    = 512 + canaryCategories
	cacheCapacity = 128
)

// readCategories are the categories reads and updates may touch.
func readCategories() int { return categories - canaryCategories }

type table int

const (
	small table = iota
	large
)

func (t table) String() string {
	if t == small {
		return "small"
	}
	return "large"
}

// row is one tuple as the oracle mirrors it: ver is the version column the
// pages render (0 for seeded rows, the update's sequence number afterwards);
// val is derived from id.
type row struct{ id, ver int64 }

func rowVal(id int64) string { return "item-" + strconv.FormatInt(id, 10) }

// Row ids. Seeded rows of category c start at (c+1)*idStride, canary rows
// use ids below idStride, and the update stream inserts from
// firstUpdateID upwards, so no two writers collide.
const (
	idStride      = 1 << 10
	firstUpdateID = 1 << 30
)

// seedRows are the rows of one category as the schema script creates them.
func seedRows(t table, cat int) []row {
	n := smallPerCat
	if t == large {
		n = largePerCat
	}
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{id: int64(cat+1)*idStride + int64(i)}
	}
	return rows
}

func schemaSQL() string {
	var b strings.Builder
	for _, t := range []table{small, large} {
		fmt.Fprintf(&b, "CREATE TABLE %s (id INT PRIMARY KEY, cat INT, ver INT, val TEXT);\n", t)
		fmt.Fprintf(&b, "CREATE INDEX %s_cat ON %s (cat);\n", t, t)
	}
	for _, t := range []table{small, large} {
		n := 0
		for cat := 0; cat < categories; cat++ {
			for _, r := range seedRows(t, cat) {
				switch {
				case n%200 == 0 && n > 0:
					b.WriteString(";\nINSERT INTO " + t.String() + " VALUES ")
				case n == 0:
					b.WriteString("INSERT INTO " + t.String() + " VALUES ")
				default:
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(%d, %d, 0, '%s')", r.id, cat, rowVal(r.id))
				n++
			}
		}
		b.WriteString(";\n")
	}
	return b.String()
}

func insertSQL(t table, cat int, r row) string {
	return fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %d, '%s')", t, r.id, cat, r.ver, rowVal(r.id))
}

func deleteSQL(t table, id int64) string {
	return fmt.Sprintf("DELETE FROM %s WHERE id = %d", t, id)
}

// servlet names a page kind.
type servlet int

const (
	light servlet = iota
	medium
	heavy
	home
)

var servletNames = [...]string{"light", "medium", "heavy", "home"}

func (s servlet) String() string { return servletNames[s] }

// page is one request target. session is -1 except for home.
type page struct {
	servlet servlet
	cat     int
	session int
}

func (p page) path() string { return "/" + p.servlet.String() + "/" + strconv.Itoa(p.cat) }

func (p page) cookie() string {
	if p.session < 0 {
		return ""
	}
	return "session=u" + strconv.Itoa(p.session)
}

// pageSQL is the one query behind a page (home's listing is medium's).
func pageSQL(s servlet, cat int) string {
	c := strconv.Itoa(cat)
	switch s {
	case light:
		return "SELECT id, ver, val FROM small WHERE cat = " + c + " ORDER BY id"
	case heavy:
		return "SELECT small.id, small.ver, large.id, large.ver FROM small, large " +
			"WHERE small.cat = large.cat AND small.cat = " + c +
			" ORDER BY small.id, large.id LIMIT " + strconv.Itoa(heavyLimit)
	default:
		return "SELECT id, ver, val FROM large WHERE cat = " + c + " ORDER BY id"
	}
}

// renderRows formats a result the way every shop page does. The servlets
// call it on engine rows and the oracle on its mirror, so equal data gives
// equal bytes.
func renderRows(rows [][]string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "<!-- %d rows -->\n", len(rows))
	for _, r := range rows {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

const homeHeader = "<nav>shop</nav>"

func homeTrim(session string) string { return "<aside>hello " + session + "</aside>" }

var homeTemplate = []byte("<header>shop</header>\n" +
	cacheportal.FragmentMarker("header") + "\n" +
	cacheportal.FragmentMarker("listing") + "\n" +
	cacheportal.FragmentMarker("trim") + "\n<footer/>\n")

// assembleHome is the home page with its three fragments spliced in.
func assembleHome(listing []byte, session string) []byte {
	s := string(homeTemplate)
	s = strings.Replace(s, cacheportal.FragmentMarker("header"), homeHeader, 1)
	s = strings.Replace(s, cacheportal.FragmentMarker("listing"), string(listing), 1)
	s = strings.Replace(s, cacheportal.FragmentMarker("trim"), homeTrim(session), 1)
	return []byte(s)
}

func catOf(ctx *cacheportal.Context) (int, error) {
	p := ctx.Request.URL.Path
	cat, err := strconv.Atoi(p[strings.LastIndexByte(p, '/')+1:])
	if err != nil || cat < 0 || cat >= categories {
		return 0, fmt.Errorf("shop: bad category in %q", p)
	}
	return cat, nil
}

func queryFragment(ctx *cacheportal.Context, name string, s servlet, cat int) error {
	return ctx.Fragment(name, false, func() ([]byte, error) {
		lease, err := ctx.Lease(source)
		if err != nil {
			return nil, err
		}
		defer lease.Release()
		res, err := lease.Query(pageSQL(s, cat))
		if err != nil {
			return nil, err
		}
		rows := make([][]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = make([]string, len(r))
			for j, v := range r {
				rows[i][j] = v.String()
			}
		}
		return renderRows(rows), nil
	})
}

// shopServlets registers light, medium and heavy as a single shared "rows"
// fragment under a marker-only template (the demo application's shape), and
// home as shared header and listing plus a private per-session trim.
func shopServlets() []cacheportal.ServletDef {
	rowsPage := func(s servlet) cacheportal.ServletDef {
		return cacheportal.ServletDef{
			Meta: cacheportal.Meta{Name: s.String()},
			Handler: func(ctx *cacheportal.Context) (*cacheportal.Page, error) {
				cat, err := catOf(ctx)
				if err != nil {
					return nil, err
				}
				if err := queryFragment(ctx, "rows", s, cat); err != nil {
					return nil, err
				}
				return &cacheportal.Page{Template: []byte(cacheportal.FragmentMarker("rows"))}, nil
			},
		}
	}
	homeDef := cacheportal.ServletDef{
		Meta: cacheportal.Meta{Name: home.String(), Keys: cacheportal.KeySpec{Cookie: []string{"session"}}},
		Handler: func(ctx *cacheportal.Context) (*cacheportal.Page, error) {
			cat, err := catOf(ctx)
			if err != nil {
				return nil, err
			}
			if err := ctx.Fragment("header", false, func() ([]byte, error) { return []byte(homeHeader), nil }); err != nil {
				return nil, err
			}
			if err := queryFragment(ctx, "listing", home, cat); err != nil {
				return nil, err
			}
			if err := ctx.Fragment("trim", true, func() ([]byte, error) {
				return []byte(homeTrim(ctx.Cookies["session"])), nil
			}); err != nil {
				return nil, err
			}
			return &cacheportal.Page{Template: homeTemplate}, nil
		},
	}
	return []cacheportal.ServletDef{rowsPage(light), rowsPage(medium), rowsPage(heavy), homeDef}
}

// newSite boots the production topology: feed-driven invalidation, fragment
// caching, two app servers behind a balancer, three cache nodes behind the
// hash front.
func newSite() (*cacheportal.Site, error) {
	return cacheportal.NewSite(cacheportal.SiteConfig{
		Schema:        schemaSQL(),
		Servlets:      shopServlets(),
		CacheCapacity: cacheCapacity,
		Feed:          true,
		Fragments:     true,
		AutoIndex:     true,
		WebServers:    2,
		Cluster:       cacheportal.ClusterConfig{CacheNodes: 3},
	})
}
