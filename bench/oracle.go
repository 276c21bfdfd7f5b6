package main

import (
	"bytes"
	"strconv"
	"sync"
	"time"
)

// stalenessBound is how long a superseded page may keep being served before
// the response counts as a failure (the paper's §4.2.4 contract, with the
// feed-driven invalidator's bound rounded up generously).
const stalenessBound = time.Second

// class is the oracle's verdict on one response.
type class int

const (
	fresh       class = iota // the newest version committed before the request was sent, or newer
	staleWithin              // superseded, but for less than stalenessBound when sent
	stalePast                // superseded for longer than stalenessBound when sent
	wrongBytes               // equal to no version the origin ever rendered
	numClasses
)

var classNames = [numClasses]string{"fresh", "stale_within_bound", "stale_past_bound", "wrong_bytes"}

// update is one committed change: an insert of r, or a delete of r.id.
type update struct {
	table  table
	cat    int
	insert bool
	r      row
}

func (u update) sql() string {
	if u.insert {
		return insertSQL(u.table, u.cat, u.r)
	}
	return deleteSQL(u.table, u.r.id)
}

// mirror is the harness's copy of both tables, per category, in id order:
// what the database holds when every issued update has been applied.
type mirror struct {
	rows [2][][]row
}

func newMirror() *mirror {
	m := &mirror{}
	for _, t := range []table{small, large} {
		m.rows[t] = make([][]row, categories)
		for cat := range m.rows[t] {
			m.rows[t][cat] = seedRows(t, cat)
		}
	}
	return m
}

func (m *mirror) apply(u update) {
	rows := m.rows[u.table][u.cat]
	i := 0
	for i < len(rows) && rows[i].id < u.r.id {
		i++
	}
	if u.insert {
		rows = append(rows, row{})
		copy(rows[i+1:], rows[i:])
		rows[i] = u.r
	} else if i < len(rows) && rows[i].id == u.r.id {
		rows = append(rows[:i], rows[i+1:]...)
	}
	m.rows[u.table][u.cat] = rows
}

// render is the body of the servlet's rows fragment (home's listing is
// medium's) as the origin would produce it from the mirrored rows.
func (m *mirror) render(s servlet, cat int) []byte {
	i64 := func(v int64) string { return strconv.FormatInt(v, 10) }
	var out [][]string
	switch s {
	case light, medium:
		t := small
		if s == medium {
			t = large
		}
		for _, r := range m.rows[t][cat] {
			out = append(out, []string{i64(r.id), i64(r.ver), rowVal(r.id)})
		}
	case heavy:
	join:
		for _, sr := range m.rows[small][cat] {
			for _, lr := range m.rows[large][cat] {
				if len(out) == heavyLimit {
					break join
				}
				out = append(out, []string{i64(sr.id), i64(sr.ver), i64(lr.id), i64(lr.ver)})
			}
		}
	}
	return renderRows(out)
}

// version is one rendering of a page. done is when the update that produced
// it returned to its caller; it is zero while that call is in flight.
type version struct {
	hash uint64
	done time.Time
}

// oracle keeps, for every page, each version the origin could have rendered
// and when it was committed, so any response can be dated: the harness is
// the only writer, and it tells the oracle before and after each update.
type oracle struct {
	mu       sync.Mutex
	m        *mirror
	versions [3][][]version      // light, medium, heavy; home is dated by medium's
	frames   [sessions][2][]byte // what surrounds the listing in each session's home page
	// onStalePast, when set, is told of every page classified stalePast.
	onStalePast func(page)
}

func newOracle() *oracle {
	o := &oracle{m: newMirror()}
	for _, s := range []servlet{light, medium, heavy} {
		o.versions[s] = make([][]version, categories)
	}
	const mark = "\x00"
	for u := range o.frames {
		whole := assembleHome([]byte(mark), "u"+strconv.Itoa(u))
		i := bytes.Index(whole, []byte(mark))
		o.frames[u] = [2][]byte{whole[:i], whole[i+len(mark):]}
	}
	return o
}

// history returns the page's versions, rendering the seeded one on first use.
// Caller holds o.mu.
func (o *oracle) history(s servlet, cat int) []version {
	if o.versions[s][cat] == nil {
		o.versions[s][cat] = []version{{hash: fnv64(o.m.render(s, cat))}}
	}
	return o.versions[s][cat]
}

func affected(t table) []servlet {
	if t == small {
		return []servlet{light, heavy}
	}
	return []servlet{medium, heavy}
}

// begin records the versions u is about to create; call it before issuing u.
// From then on a response may show them.
func (o *oracle) begin(u update) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range affected(u.table) {
		o.history(s, u.cat)
	}
	o.m.apply(u)
	for _, s := range affected(u.table) {
		o.versions[s][u.cat] = append(o.versions[s][u.cat], version{hash: fnv64(o.m.render(s, u.cat))})
	}
}

// end stamps u's versions committed; call it when the update call returns.
// Updates to one category are issued one at a time, so they are the last.
func (o *oracle) end(u update, done time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range affected(u.table) {
		v := o.versions[s][u.cat]
		v[len(v)-1].done = done
	}
}

// classify dates the body a request for p, sent at sent, was answered with.
func (o *oracle) classify(p page, body []byte, sent time.Time) class {
	c := o.date(p, body, sent)
	if c == stalePast && o.onStalePast != nil {
		o.onStalePast(p)
	}
	return c
}

func (o *oracle) date(p page, body []byte, sent time.Time) class {
	s := p.servlet
	if s == home {
		prefix, suffix := o.frames[p.session][0], o.frames[p.session][1]
		if !bytes.HasPrefix(body, prefix) || !bytes.HasSuffix(body, suffix) || len(body) < len(prefix)+len(suffix) {
			return wrongBytes
		}
		body, s = body[len(prefix):len(body)-len(suffix)], medium
	}
	h := fnv64(body)
	o.mu.Lock()
	defer o.mu.Unlock()
	vs := o.history(s, p.cat)
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].hash != h {
			continue
		}
		if i == len(vs)-1 {
			return fresh
		}
		superseded := vs[i+1].done
		switch {
		case superseded.IsZero() || !superseded.Before(sent):
			return fresh
		case sent.Sub(superseded) <= stalenessBound:
			return staleWithin
		default:
			return stalePast
		}
	}
	return wrongBytes
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
