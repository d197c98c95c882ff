package minisql

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Result is the outcome of executing a statement.
type Result struct {
	// Rows holds the result rows of a SELECT, in the order of its column
	// list (the table's for *).
	Rows [][]Value
	// Affected counts rows written by INSERT/UPDATE/DELETE.
	Affected int64
	// Feed is set by SELECT CHANGES (changes.go) and nil otherwise.
	Feed *Feed
}

// Engine is an in-memory SQL database. All methods are safe for concurrent
// use; statements execute atomically with respect to each other.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*tableData

	cacheMu   sync.RWMutex
	stmtCache map[string]statement

	// writeMu serializes writes, so a standby streaming from this engine
	// (server.go) takes a cut between two of them. Reads are unaffected. It
	// guards seq, the change-feed numbering (changes.go), and wake.
	writeMu sync.Mutex
	seq     int64
	// wake, when not nil, is closed by the next write: a standby with
	// nothing left to read waits on it.
	wake chan struct{}
	// lineage is the sequence seq counts in (changes.go). SELECT CHANGES
	// reads it without writeMu; only apply and promote change it.
	lineage atomic.Pointer[lineage]
}

type tableData struct {
	mu      sync.RWMutex
	name    string
	schema  []columnDef
	colIdx  map[string]int
	pkCol   int
	rows    [][]Value
	pkIndex index
	feed
}

// index maps each primary key to the index of its row in rows. It is keyed
// by the key column's own Go type, and a table makes only the map of its
// key's kind: a TEXT key costs a string header where a Value costs 40 B,
// and a key still in a frame's bytes names its row without a string made
// (text[string(raw)] does not allocate). A FLOAT key compares as float64
// does: -0 names +0's row, and NaN names none.
type index struct {
	text   map[string]int
	ints   map[int64]int
	floats map[float64]int
}

func newIndex(k Kind) (index, bool) {
	switch k {
	case KindText:
		return index{text: make(map[string]int)}, true
	case KindInt:
		return index{ints: make(map[int64]int)}, true
	case KindFloat:
		return index{floats: make(map[float64]int)}, true
	}
	return index{}, false
}

// get returns the row of key k, which has the key column's kind (coerce);
// a key of another kind, NULL included, names no row.
func (x *index) get(k Value) (ri int, ok bool) {
	switch k.Kind {
	case KindText:
		ri, ok = x.text[k.S]
	case KindInt:
		ri, ok = x.ints[k.I]
	case KindFloat:
		ri, ok = x.floats[k.F]
	}
	return ri, ok
}

// put files key k, of the key column's kind, under row ri.
func (x *index) put(k Value, ri int) {
	switch k.Kind {
	case KindText:
		x.text[k.S] = ri
	case KindInt:
		x.ints[k.I] = ri
	case KindFloat:
		x.floats[k.F] = ri
	}
}

func (x *index) del(k Value) {
	switch k.Kind {
	case KindText:
		delete(x.text, k.S)
	case KindInt:
		delete(x.ints, k.I)
	case KindFloat:
		delete(x.floats, k.F)
	}
}

// NewEngine returns an empty database.
func NewEngine() *Engine {
	e := &Engine{
		tables:    make(map[string]*tableData),
		stmtCache: make(map[string]statement),
	}
	e.lineage.Store(&lineage{origin: newOrigin()})
	return e
}

// parseCached parses sql, memoizing the AST. Statements are immutable after
// parse (placeholders are bound into copies), so sharing is safe.
func (e *Engine) parseCached(sql string) (statement, error) {
	e.cacheMu.RLock()
	st, ok := e.stmtCache[sql]
	e.cacheMu.RUnlock()
	if ok {
		return st, nil
	}
	st, err := parse(sql)
	if err != nil {
		return nil, err
	}
	e.cacheMu.Lock()
	// Bound growth: an adversarial unique-statement stream must not leak.
	if len(e.stmtCache) > 4096 {
		e.stmtCache = make(map[string]statement)
	}
	e.stmtCache[sql] = st
	e.cacheMu.Unlock()
	return st, nil
}

// Execute parses and runs one statement with the given placeholder values.
func (e *Engine) Execute(sql string, args ...Value) (Result, error) {
	return e.execute(sql, &params{vals: args})
}

// execute runs one statement, in process (Execute) or served (serveConn).
func (e *Engine) execute(sql string, p *params) (Result, error) {
	st, err := e.parseCached(sql)
	if err != nil {
		return Result{}, err
	}
	if !readOnly(st) {
		e.writeMu.Lock()
		defer e.writeMu.Unlock()
		defer e.notify()
	}
	return e.exec(st, p)
}

// notify wakes the standbys waiting for a write. Caller holds writeMu.
func (e *Engine) notify() {
	if e.wake != nil {
		close(e.wake)
		e.wake = nil
	}
}

// readOnly reports whether st only reads: it then runs beside writes, and a
// standby serves it.
func readOnly(st statement) bool {
	switch st.(type) {
	case selectStmt, changesStmt:
		return true
	}
	return false
}

// params are a statement's placeholder arguments, bound in order. A TEXT
// argument decoded off the wire stays in the frame's bytes until the engine
// keeps it: its Value's S is empty, and raw holds the bytes of every TEXT
// argument, in order. The connection reuses that buffer for its next frame,
// so a value the engine keeps becomes a string of its own (value), and a
// lookup reads the bytes in place (key).
type params struct {
	vals          []Value
	raw           [][]byte // nil for arguments built in process
	next, nextRaw int
}

// key binds ex for a lookup: its value, and the bytes of a TEXT argument
// still in a frame (raw nil otherwise).
func (p *params) key(ex expr) (v Value, raw []byte, err error) {
	if !ex.placeholder {
		return ex.value, nil, nil
	}
	if p.next >= len(p.vals) {
		return Value{}, nil, fmt.Errorf("minisql: not enough arguments: need more than %d", len(p.vals))
	}
	i := p.next
	p.next++
	if v = p.vals[i]; v.Kind == KindText && p.raw != nil {
		raw = p.raw[p.nextRaw]
		p.nextRaw++
	}
	return v, raw, nil
}

// value binds ex as a value the engine may keep.
func (p *params) value(ex expr) (Value, error) {
	v, raw, err := p.key(ex)
	if raw != nil {
		v.S = string(raw)
	}
	return v, err
}

func (e *Engine) exec(st statement, args *params) (Result, error) {
	switch s := st.(type) {
	case createTableStmt:
		return Result{}, e.createTable(s)
	case insertStmt:
		n, err := e.insert(s, args)
		return Result{Affected: n}, err
	case selectStmt:
		return e.selectRows(s, args)
	case changesStmt:
		return e.changes(s, args)
	case updateStmt:
		n, err := e.update(s, args)
		return Result{Affected: n}, err
	case deleteStmt:
		n, err := e.deleteRows(s, args)
		return Result{Affected: n}, err
	default:
		return Result{}, fmt.Errorf("minisql: unsupported statement %T", st)
	}
}

func (e *Engine) getTable(name string) (*tableData, error) {
	e.mu.RLock()
	t := e.tables[strings.ToLower(name)]
	e.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("minisql: no such table %q", name)
	}
	return t, nil
}

func (e *Engine) createTable(s createTableStmt) error {
	t, err := newTable(s.name, s.columns)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.tables[t.name]; exists {
		if s.ifNotExists {
			return nil
		}
		return fmt.Errorf("minisql: table %q already exists", s.name)
	}
	e.seq++ // creation takes a number, so the head passes every older cursor
	t.head = e.seq
	e.tables[t.name] = t
	return nil
}

// newTable builds an empty table from its column definitions.
func newTable(name string, cols []columnDef) (*tableData, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("minisql: table %q has no columns", name)
	}
	t := &tableData{
		name:   strings.ToLower(name),
		schema: append([]columnDef(nil), cols...),
		colIdx: make(map[string]int, len(cols)),
		pkCol:  -1,
		feed:   feed{tombs: make(map[Value]int64)},
	}
	for i, c := range cols {
		lc := strings.ToLower(c.name)
		if _, dup := t.colIdx[lc]; dup {
			return nil, fmt.Errorf("minisql: duplicate column %q", c.name)
		}
		t.colIdx[lc] = i
		if c.pk {
			if t.pkCol >= 0 {
				return nil, fmt.Errorf("minisql: multiple primary keys in %q", name)
			}
			t.pkCol = i
		}
	}
	if t.pkCol < 0 {
		// The change feed, and so a standby, names each row by its key.
		return nil, fmt.Errorf("minisql: table %q has no primary key", name)
	}
	var ok bool
	if t.pkIndex, ok = newIndex(t.schema[t.pkCol].kind); !ok {
		// Only a snapshot off the wire can name such a column.
		return nil, fmt.Errorf("minisql: primary key of table %q has kind %s", name, t.schema[t.pkCol].kind)
	}
	return t, nil
}

// add appends row to the table and returns its index.
func (t *tableData) add(row []Value) int {
	ri := len(t.rows)
	t.pkIndex.put(row[t.pkCol], ri)
	t.rows = append(t.rows, row)
	t.seqs = append(t.seqs, 0)
	return ri
}

// remove deletes rows[ri], moving the last row into its place.
func (t *tableData) remove(ri int) {
	last := len(t.rows) - 1
	t.pkIndex.del(t.rows[ri][t.pkCol])
	if ri != last {
		t.rows[ri], t.seqs[ri] = t.rows[last], t.seqs[last]
		t.pkIndex.put(t.rows[ri][t.pkCol], ri)
	}
	t.rows, t.seqs = t.rows[:last], t.seqs[:last]
}

func (e *Engine) insert(s insertStmt, args *params) (int64, error) {
	t, err := e.getTable(s.table)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Bind, coerce and key-check every row before changing any: a statement
	// is atomic, so one that fails leaves no row and no sequence number
	// behind.
	rows := make([][]Value, len(s.rows))
	var fresh map[Value]bool // keys an earlier row of this INSERT adds
	if len(s.rows) > 1 && !s.replace {
		fresh = make(map[Value]bool, len(s.rows))
	}
	for r, exprRow := range s.rows {
		if len(exprRow) != len(t.schema) {
			return 0, fmt.Errorf("minisql: row has %d values, want %d", len(exprRow), len(t.schema))
		}
		row := make([]Value, len(t.schema))
		for i, ex := range exprRow {
			v, err := args.value(ex)
			if err != nil {
				return 0, err
			}
			if row[i], err = coerce(v, t.schema[i].kind); err != nil {
				return 0, err
			}
		}
		pk := row[t.pkCol]
		if pk.isNull() {
			return 0, fmt.Errorf("minisql: NULL primary key in table %q", t.name)
		}
		if _, dup := t.pkIndex.get(pk); (dup || fresh[pk]) && !s.replace {
			return 0, fmt.Errorf("minisql: duplicate primary key %s in table %q", pk, t.name)
		}
		if fresh != nil {
			fresh[pk] = true
		}
		rows[r] = row
	}
	for _, row := range rows {
		ri, dup := t.pkIndex.get(row[t.pkCol])
		if dup {
			if slices.Equal(t.rows[ri], row) {
				continue // the same values again: nothing changed
			}
			t.rows[ri] = row
		} else {
			ri = t.add(row)
		}
		e.seq++
		t.stamp(ri, e.seq)
	}
	return int64(len(rows)), nil
}

// lookup returns the index of the row that WHERE c names, and whether there
// is one. c's column must be the primary key; a value that cannot take the
// key's type names no row. A TEXT key still in a frame is looked up from
// its bytes.
func (t *tableData) lookup(c cond, args *params) (int, bool, error) {
	pk := t.schema[t.pkCol]
	if !strings.EqualFold(c.column, pk.name) {
		return 0, false, fmt.Errorf("minisql: WHERE must name the primary key %q of table %q, not %q", pk.name, t.name, c.column)
	}
	v, raw, err := args.key(c.key)
	if err != nil {
		return 0, false, err
	}
	if raw != nil && pk.kind == KindText {
		ri, ok := t.pkIndex.text[string(raw)]
		return ri, ok, nil
	}
	if raw != nil {
		v.S = string(raw) // coerced below: '5' names INT key 5
	}
	if v, err = coerce(v, pk.kind); err != nil {
		return 0, false, nil
	}
	ri, ok := t.pkIndex.get(v)
	return ri, ok, nil
}

func (e *Engine) selectRows(s selectStmt, args *params) (Result, error) {
	t, err := e.getTable(s.table)
	if err != nil {
		return Result{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := t.rows
	if s.where != nil {
		ri, ok, err := t.lookup(*s.where, args)
		if err != nil {
			return Result{}, err
		}
		rows = nil
		if ok {
			rows = t.rows[ri : ri+1]
		}
	}
	if s.count {
		return Result{Rows: [][]Value{{Int(int64(len(rows)))}}}, nil
	}
	// The projection, checked even when no row returns; on the stack.
	proj := make([]int, 0, 8)
	if len(s.columns) == 0 {
		for i := range t.schema {
			proj = append(proj, i)
		}
	}
	for _, c := range s.columns {
		ci, ok := t.colIdx[strings.ToLower(c)]
		if !ok {
			return Result{}, fmt.Errorf("minisql: no column %q in table %q", c, t.name)
		}
		proj = append(proj, ci)
	}
	if s.orderBy != "" {
		oi, ok := t.colIdx[strings.ToLower(s.orderBy)]
		if !ok {
			return Result{}, fmt.Errorf("minisql: no column %q in table %q", s.orderBy, t.name)
		}
		n := len(rows)
		if s.limit >= 0 {
			n = s.limit
		}
		rows = topRows(rows, oi, s.desc, n)
	}
	if s.limit >= 0 && len(rows) > s.limit {
		rows = rows[:s.limit]
	}
	if len(rows) == 0 {
		return Result{}, nil
	}
	// One backing array holds every result value.
	out, vals := make([][]Value, len(rows)), make([]Value, len(rows)*len(proj))
	for r, row := range rows {
		o := vals[r*len(proj) : (r+1)*len(proj) : (r+1)*len(proj)]
		for i, ci := range proj {
			o[i] = row[ci]
		}
		out[r] = o
	}
	return Result{Rows: out}, nil
}

// topRows returns the first n of rows in the order a stable sort on column
// oi gives them (descending if desc), without copying or sorting the rest
// (t.rows itself stays put under pkIndex): a max-heap of at most n storage
// indices, keyed on (value, index) so that ties keep their storage order,
// holds the n first rows seen so far.
func topRows(rows [][]Value, oi int, desc bool, n int) [][]Value {
	after := func(i, j int) bool { // row i sorts after row j
		c := compare(rows[i][oi], rows[j][oi])
		if desc {
			c = -c
		}
		return c > 0 || c == 0 && i > j
	}
	h := make([]int, min(n, len(rows)))
	down := func(p int) { // sift h[p] down to restore the heap
		for {
			m, l, r := p, 2*p+1, 2*p+2
			if l < len(h) && after(h[l], h[m]) {
				m = l
			}
			if r < len(h) && after(h[r], h[m]) {
				m = r
			}
			if m == p {
				return
			}
			h[p], h[m] = h[m], h[p]
			p = m
		}
	}
	for i := range h {
		h[i] = i
	}
	for p := len(h)/2 - 1; p >= 0; p-- {
		down(p)
	}
	for i := len(h); i < len(rows); i++ {
		if len(h) > 0 && after(h[0], i) {
			h[0] = i
			down(0)
		}
	}
	slices.SortFunc(h, func(i, j int) int {
		if after(i, j) {
			return 1
		}
		return -1 // indices are distinct, so no two rows tie
	})
	out := make([][]Value, len(h))
	for k, i := range h {
		out[k] = rows[i]
	}
	return out
}

func (e *Engine) update(s updateStmt, args *params) (int64, error) {
	t, err := e.getTable(s.table)
	if err != nil {
		return 0, err
	}
	type setVal struct {
		col int
		val Value
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Bind every SET value before changing anything (placeholder order: SET
	// then WHERE). A constant capacity keeps the list on the stack.
	sets := make([]setVal, 0, 8)
	for _, sc := range s.sets {
		idx, ok := t.colIdx[strings.ToLower(sc.column)]
		if !ok {
			return 0, fmt.Errorf("minisql: no column %q in table %q", sc.column, t.name)
		}
		if idx == t.pkCol {
			// A row keeps its key: a new key is a DELETE and an INSERT.
			return 0, fmt.Errorf("minisql: UPDATE cannot set the primary key %q of table %q", sc.column, t.name)
		}
		v, err := args.value(sc.value)
		if err != nil {
			return 0, err
		}
		cv, err := coerce(v, t.schema[idx].kind)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setVal{idx, cv})
	}
	ri, ok, err := t.lookup(s.where, args)
	if err != nil || !ok {
		return 0, err
	}
	changed := false
	for _, sv := range sets {
		changed = changed || t.rows[ri][sv.col] != sv.val
		t.rows[ri][sv.col] = sv.val
	}
	if changed { // the same values again take no number
		e.seq++
		t.stamp(ri, e.seq)
	}
	return 1, nil
}

func (e *Engine) deleteRows(s deleteStmt, args *params) (int64, error) {
	t, err := e.getTable(s.table)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ri, ok, err := t.lookup(s.where, args)
	if err != nil || !ok {
		return 0, err
	}
	pk := t.rows[ri][t.pkCol]
	t.remove(ri)
	e.seq++
	t.bury(pk, e.seq)
	return 1, nil
}
