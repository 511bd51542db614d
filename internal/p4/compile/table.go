package compile

import (
	"encoding/binary"

	"switchv/internal/bmv2"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
)

// compiledTable is a table slot referenced by compiled ApplyTable
// closures: the table's keys and default action, and its entry rows
// built once from the store.
type compiledTable struct {
	t        *ir.Table
	name     string
	selector bool

	// The rows, in precedence order (first match wins), indexed by the
	// scan dispatch (see buildDispatch): lookup probes one bucket per
	// level, then the residual rows, merging by row sequence. Below
	// dispatchMinRows there are no levels and the residual holds every
	// row, so lookup is a plain scan.
	dispLevels []dispLevel
	dispBuf    [16]byte
	residual   []*compiledEntry
	cands      [][]*compiledEntry // lookup scratch

	defaultHitID uint32
	defaultBody  []stmtFn
	defaultArgs  []value.V
}

// dispLevel is one hash-grouping level of the scan dispatch.
type dispLevel struct {
	field   int
	masked  bool
	mask    value.V
	buckets map[string][]*compiledEntry
}

// matchCond is one precompiled key condition of an entry. Masks and
// wanted values are folded at build time so the per-packet work is at
// most one And and one Equal.
type matchCond struct {
	field  int
	masked bool
	mask   value.V
	want   value.V
}

// compiledEntry is one table entry with its match rows, trace record and
// action closure resolved ahead of time.
type compiledEntry struct {
	conds []matchCond
	// never marks entries that match nothing (pdpi.Lower), so lookup
	// never scans them.
	never bool

	// seq is the row's index in precedence order, for dispatch merging.
	seq int

	hitID uint32
	body  []stmtFn
	args  []value.V

	// Selector tables: one body/args/hit per one-shot member, cycled
	// round-robin under rrKey.
	rrKey        string
	memberHitIDs []uint32
	memberBody   [][]stmtFn
	memberArgs   [][]value.V
}

// slotFor returns (creating on first reference) the table slot for t,
// with its default action and entry rows compiled.
func (p *Pipeline) slotFor(t *ir.Table, slots map[*ir.Table]*compiledTable) *compiledTable {
	if ct, ok := slots[t]; ok {
		return ct
	}
	ct := &compiledTable{t: t, name: t.Name, selector: t.IsSelector}
	ct.defaultHitID = p.regHit(bmv2.TableHit{Table: t.Name, Action: t.DefaultAction.Name})
	ct.defaultBody = p.actionBody(t.DefaultAction)
	ct.defaultArgs = make([]value.V, len(t.DefaultAction.Params))
	for i, prm := range t.DefaultAction.Params {
		var arg uint64
		if i < len(t.DefaultActionArgs) {
			arg = t.DefaultActionArgs[i]
		}
		ct.defaultArgs[i] = value.New(arg, prm.Width)
	}
	slots[t] = ct
	p.buildTable(ct)
	return ct
}

// buildTable compiles a table's entry rows from the store, in the
// precedence order pdpi gives them, so the first matching row wins.
func (p *Pipeline) buildTable(ct *compiledTable) {
	entries := p.store.Ordered(ct.t)
	rows := make([]*compiledEntry, 0, len(entries))
	for _, e := range entries {
		rows = append(rows, p.compileEntry(ct, e))
	}
	// Pack all rows' conds into one contiguous backing array: scanned
	// tables walk them for every packet, and locality dominates that
	// loop once the per-cond work is a masked compare.
	total := 0
	for _, r := range rows {
		total += len(r.conds)
	}
	packed := make([]matchCond, 0, total)
	for _, r := range rows {
		start := len(packed)
		packed = append(packed, r.conds...)
		r.conds = packed[start:len(packed):len(packed)]
	}
	ct.buildDispatch(rows)
}

// dispatchMinRows gates the scan dispatch: below it, scanning the rows
// outright is cheaper than hashing the dispatch key.
const dispatchMinRows = 8

// buildDispatch turns an ordered scan into hash-grouped levels: pick
// the (field, mask) condition shared by the most rows, bucket those
// rows by their wanted value (stripping the now-implied condition),
// and repeat on the remainder until no condition covers two rows. A
// lookup probes one bucket per level and scans only the residual; a
// row in a non-matching bucket could not have matched, and merging by
// row sequence reproduces the full scan's precedence exactly.
func (ct *compiledTable) buildDispatch(rows []*compiledEntry) {
	input := make([]*compiledEntry, 0, len(rows))
	for i, r := range rows {
		r.seq = i
		if !r.never {
			input = append(input, r)
		}
	}
	ct.residual = input
	ct.cands = make([][]*compiledEntry, 0, 1)
	if len(input) < dispatchMinRows {
		return
	}
	type levelKey struct {
		field  int
		masked bool
		mask   value.V
	}
	less := func(a, b levelKey) bool {
		if a.field != b.field {
			return a.field < b.field
		}
		if a.masked != b.masked {
			return !a.masked
		}
		if a.mask.Hi != b.mask.Hi {
			return a.mask.Hi < b.mask.Hi
		}
		return a.mask.Lo < b.mask.Lo
	}
	var buf [16]byte
	for {
		counts := map[levelKey]int{}
		for _, r := range input {
			for i := range r.conds {
				c := &r.conds[i]
				counts[levelKey{c.field, c.masked, c.mask}]++
			}
		}
		// Deterministic pick: most rows, smallest key on ties. A level
		// must cover at least two rows to beat scanning them.
		var best levelKey
		bestN, found := 1, false
		for k, n := range counts {
			if n > bestN || (n == bestN && found && less(k, best)) {
				best, bestN, found = k, n, true
			}
		}
		if !found {
			break
		}
		lvl := dispLevel{field: best.field, masked: best.masked, mask: best.mask,
			buckets: map[string][]*compiledEntry{}}
		var rest []*compiledEntry
		for _, r := range input {
			idx := -1
			for i := range r.conds {
				c := &r.conds[i]
				if c.field == best.field && c.masked == best.masked && c.mask == best.mask {
					idx = i
					break
				}
			}
			if idx < 0 {
				rest = append(rest, r)
				continue
			}
			c := r.conds[idx]
			binary.BigEndian.PutUint64(buf[:], c.want.Hi)
			binary.BigEndian.PutUint64(buf[8:], c.want.Lo)
			k := string(buf[:])
			lvl.buckets[k] = append(lvl.buckets[k], r)
			// Bucket membership implies this condition; drop it.
			nc := make([]matchCond, 0, len(r.conds)-1)
			nc = append(nc, r.conds[:idx]...)
			nc = append(nc, r.conds[idx+1:]...)
			r.conds = nc
		}
		ct.dispLevels = append(ct.dispLevels, lvl)
		input = rest
	}
	ct.residual = input
	ct.cands = make([][]*compiledEntry, 0, len(ct.dispLevels)+1)
}

// compileEntry lowers one store entry to a row.
func (p *Pipeline) compileEntry(ct *compiledTable, e *pdpi.Entry) *compiledEntry {
	row := &compiledEntry{}
	entryKey := e.Key()

	for i := range e.Matches {
		lc, ok := pdpi.Lower(ct.t, &e.Matches[i])
		if !ok {
			row.never = true
			continue
		}
		k := ct.t.Keys[lc.Key]
		c := matchCond{field: k.Field.ID, want: lc.Want}
		// Field values are stored width-masked, so a full-width mask is
		// an identity: compare directly. A zero mask (whose want is then
		// zero) accepts everything.
		if !lc.Exact && !lc.Mask.Equal(value.Ones(k.Field.Width)) {
			if lc.Mask.IsZero() {
				continue
			}
			c.masked, c.mask = true, lc.Mask
		}
		row.conds = append(row.conds, c)
	}

	if ct.selector {
		row.rrKey = entryKey
		for i := range e.ActionSet {
			inv := &e.ActionSet[i].ActionInvocation
			row.memberHitIDs = append(row.memberHitIDs, p.regHit(bmv2.TableHit{Table: ct.name, EntryKey: entryKey, Action: inv.Action.Name}))
			row.memberBody = append(row.memberBody, p.actionBody(inv.Action))
			row.memberArgs = append(row.memberArgs, inv.Args)
		}
		return row
	}
	row.hitID = p.regHit(bmv2.TableHit{Table: ct.name, EntryKey: entryKey, Action: e.Action.Action.Name})
	row.body = p.actionBody(e.Action.Action)
	row.args = e.Action.Args
	return row
}

// matches evaluates the precompiled conditions against the field space.
func (r *compiledEntry) matches(fs []value.V) bool {
	for i := range r.conds {
		c := &r.conds[i]
		fv := fs[c.field]
		if c.masked {
			fv = fv.And(c.mask)
		}
		if !fv.Equal(c.want) {
			return false
		}
	}
	return true
}

// lookup returns the highest-precedence matching row, or nil on miss.
func (ct *compiledTable) lookup(fs []value.V) *compiledEntry {
	cands := ct.cands[:0]
	for li := range ct.dispLevels {
		l := &ct.dispLevels[li]
		fv := fs[l.field]
		if l.masked {
			fv = fv.And(l.mask)
		}
		binary.BigEndian.PutUint64(ct.dispBuf[:], fv.Hi)
		binary.BigEndian.PutUint64(ct.dispBuf[8:], fv.Lo)
		if b := l.buckets[string(ct.dispBuf[:])]; len(b) > 0 {
			cands = append(cands, b)
		}
	}
	if len(ct.residual) > 0 {
		cands = append(cands, ct.residual)
	}
	ct.cands = cands
	if len(cands) == 1 {
		for _, r := range cands[0] {
			if r.matches(fs) {
				return r
			}
		}
		return nil
	}
	for {
		bi, bseq := -1, int(^uint(0)>>1)
		for i, l := range cands {
			if len(l) > 0 && l[0].seq < bseq {
				bi, bseq = i, l[0].seq
			}
		}
		if bi < 0 {
			return nil
		}
		r := cands[bi][0]
		cands[bi] = cands[bi][1:]
		if r.matches(fs) {
			return r
		}
	}
}

// applyTable matches the field space against a compiled table and runs
// the selected action, appending the same trace record the interpreter
// would.
func (p *Pipeline) applyTable(m *exec, ct *compiledTable) signal {
	r := ct.lookup(m.fs)
	if r == nil {
		m.trace = append(m.trace, ct.defaultHitID)
		return p.invoke(m, ct.defaultBody, ct.defaultArgs)
	}
	if ct.selector {
		idx := p.rr[r.rrKey] % len(r.memberBody)
		p.rr[r.rrKey]++
		m.trace = append(m.trace, r.memberHitIDs[idx])
		return p.invoke(m, r.memberBody[idx], r.memberArgs[idx])
	}
	m.trace = append(m.trace, r.hitID)
	return p.invoke(m, r.body, r.args)
}
