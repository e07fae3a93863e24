// Package core is a snapfields fixture: its directory maps to
// crnet/internal/core, a simulation-core package where every field of a
// checkpointable struct must be covered by both codec halves.
package core

// enc and dec stand in for snapshot.Encoder/Decoder.
type enc struct{ buf []int }

func (e *enc) put(v int) { e.buf = append(e.buf, v) }

type dec struct {
	buf []int
	i   int
}

func (d *dec) get() int { v := d.buf[d.i]; d.i++; return v }

// ring is embedded into gauge below; touching a promoted field counts
// as touching the embedded field.
type ring struct{ head, tail int }

// gauge exercises the violation shapes.
type gauge struct {
	value int
	// peak is saved but its restore was forgotten.
	peak int // want `field gauge\.peak is not referenced in LoadState`
	// ghost never made it into the codec at all.
	ghost int // want `field gauge\.ghost is not referenced in SaveState or LoadState`
	// helperCovered is serialized inside a directly-called helper.
	helperCovered int
	// deepCovered is only touched two calls deep, which is beyond the
	// one level of helper resolution the analyzer promises.
	deepCovered int // want `field gauge\.deepCovered is not referenced in SaveState or LoadState`
	//cr:nosnap rebuilt from configuration on restore
	cfgDerived int
	//cr:nosnap
	scratch []int // want `//cr:nosnap needs a justification`
	ring
}

func (g *gauge) SaveState(e *enc) {
	e.put(g.value)
	e.put(g.peak)
	g.saveRest(e)
	e.put(g.head)
}

func (g *gauge) LoadState(d *dec) {
	g.value = d.get()
	g.loadRest(d)
	g.head = d.get()
}

func (g *gauge) saveRest(e *enc) {
	e.put(g.helperCovered)
	g.saveDeep(e)
}

func (g *gauge) loadRest(d *dec) {
	g.helperCovered = d.get()
	g.loadDeep(d)
}

func (g *gauge) saveDeep(e *enc) { e.put(g.deepCovered) }
func (g *gauge) loadDeep(d *dec) { g.deepCovered = d.get() }

// level reads what the codec carries, so none of it is dead weight.
func (g *gauge) level() int { return g.value + g.helperCovered + g.head }

// cursor uses the short Save/Load pair, which pairs just the same.
type cursor struct {
	pos  int
	mark int // want `field cursor\.mark is not referenced in Load`
}

func (c *cursor) Save(e *enc) { e.put(c.pos); e.put(c.mark) }
func (c *cursor) Load(d *dec) { c.pos = d.get() }
func (c *cursor) at() int     { return c.pos }

// tally exercises the converse: fields both codec halves carry that no
// other code ever reads.
type tally struct {
	hits int
	// lastHit is assigned on every hit, saved, restored — and consumed
	// by nothing.
	lastHit int // want `field tally\.lastHit is saved and restored but never read outside its codec`
	// bumps only ever sees ++, which is still not a reader.
	bumps int // want `field tally\.bumps is saved and restored but never read outside its codec`
	//cr:unread watched through the debugger's memory view, which no analyzer sees
	probe int
	//cr:unread
	bare int // want `//cr:unread needs a justification`
	// Seen is exported: its reader may live in another package.
	Seen int
	last slot
}

// slot is nested state, reached only through tally's codec.
type slot struct {
	at  int
	via int // want `field slot\.via is saved and restored but never read outside its codec`
}

func (t *tally) hit(now int) {
	t.hits++
	t.lastHit = now
	t.bumps++
	t.probe, t.bare, t.Seen = now, now, now
	t.last = slot{at: now, via: 1}
}

func (t *tally) count() int { return t.hits + t.last.at }

func (t *tally) SaveState(e *enc) {
	for _, v := range []int{t.hits, t.lastHit, t.bumps, t.probe, t.bare, t.Seen, t.last.at, t.last.via} {
		e.put(v)
	}
}

func (t *tally) LoadState(d *dec) {
	t.hits, t.lastHit, t.bumps, t.probe = d.get(), d.get(), d.get(), d.get()
	t.bare, t.Seen, t.last.at, t.last.via = d.get(), d.get(), d.get(), d.get()
}

// exporter has only half a pair: Save for export, no Load. Out of
// scope, so its unreferenced field is not a finding.
type exporter struct {
	rows int
	tmp  []int
}

func (x *exporter) Save(e *enc) { e.put(x.rows) }
