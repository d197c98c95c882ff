package minisql

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Result is the outcome of executing a statement.
type Result struct {
	// Columns names the result columns of a SELECT.
	Columns []string
	// Rows holds the result rows of a SELECT.
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
	stmtCache map[string]Statement

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
	schema  []ColumnDef
	colIdx  map[string]int
	pkCol   int
	rows    [][]Value
	pkIndex map[Value]int // primary-key value -> index into rows
	feed
}

// NewEngine returns an empty database.
func NewEngine() *Engine {
	e := &Engine{
		tables:    make(map[string]*tableData),
		stmtCache: make(map[string]Statement),
	}
	e.lineage.Store(&lineage{origin: newOrigin()})
	return e
}

// parseCached parses sql, memoizing the AST. Statements are immutable after
// parse (placeholders are bound into copies), so sharing is safe.
func (e *Engine) parseCached(sql string) (Statement, error) {
	e.cacheMu.RLock()
	st, ok := e.stmtCache[sql]
	e.cacheMu.RUnlock()
	if ok {
		return st, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	e.cacheMu.Lock()
	// Bound growth: an adversarial unique-statement stream must not leak.
	if len(e.stmtCache) > 4096 {
		e.stmtCache = make(map[string]Statement)
	}
	e.stmtCache[sql] = st
	e.cacheMu.Unlock()
	return st, nil
}

// Execute parses and runs one statement with the given placeholder values.
func (e *Engine) Execute(sql string, args ...Value) (Result, error) {
	st, err := e.parseCached(sql)
	if err != nil {
		return Result{}, err
	}
	if !readOnly(st) {
		e.writeMu.Lock()
		defer e.writeMu.Unlock()
		defer e.notify()
	}
	return e.exec(st, args)
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
func readOnly(st Statement) bool {
	switch st.(type) {
	case SelectStmt, ChangesStmt:
		return true
	}
	return false
}

// bind resolves an expression against the placeholder argument list.
func bind(ex Expr, args []Value, next *int) (Value, error) {
	if !ex.Placeholder {
		return ex.Value, nil
	}
	if *next >= len(args) {
		return Value{}, fmt.Errorf("minisql: not enough arguments: need more than %d", len(args))
	}
	v := args[*next]
	*next++
	return v, nil
}

func bindConds(conds []Cond, args []Value, next *int) ([]boundCond, error) {
	out := make([]boundCond, len(conds))
	for i, c := range conds {
		v, err := bind(c.Expr, args, next)
		if err != nil {
			return nil, err
		}
		out[i] = boundCond{Column: c.Column, Op: c.Op, Value: v}
	}
	return out, nil
}

type boundCond struct {
	Column string
	Op     CondOp
	Value  Value
}

func (c boundCond) matches(v Value) bool {
	cmp := compare(v, c.Value)
	switch c.Op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

func (e *Engine) exec(st Statement, args []Value) (Result, error) {
	switch s := st.(type) {
	case CreateTableStmt:
		return Result{}, e.createTable(s)
	case InsertStmt:
		n, err := e.insert(s, args)
		return Result{Affected: n}, err
	case SelectStmt:
		return e.selectRows(s, args)
	case ChangesStmt:
		return e.changes(s, args)
	case UpdateStmt:
		n, err := e.update(s, args)
		return Result{Affected: n}, err
	case DeleteStmt:
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

func (e *Engine) createTable(s CreateTableStmt) error {
	t, err := newTable(s.Name, s.Columns)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.tables[t.name]; exists {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("minisql: table %q already exists", s.Name)
	}
	e.seq++ // creation takes a number, so the head passes every older cursor
	t.head = e.seq
	e.tables[t.name] = t
	return nil
}

// newTable builds an empty table from its column definitions.
func newTable(name string, cols []ColumnDef) (*tableData, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("minisql: table %q has no columns", name)
	}
	t := &tableData{
		name:    strings.ToLower(name),
		schema:  append([]ColumnDef(nil), cols...),
		colIdx:  make(map[string]int, len(cols)),
		pkCol:   -1,
		pkIndex: make(map[Value]int),
		feed:    feed{tombs: make(map[Value]int64)},
	}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colIdx[lc]; dup {
			return nil, fmt.Errorf("minisql: duplicate column %q", c.Name)
		}
		t.colIdx[lc] = i
		if c.PrimaryKey {
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
	return t, nil
}

// add appends row to the table and returns its index.
func (t *tableData) add(row []Value) int {
	ri := len(t.rows)
	t.pkIndex[row[t.pkCol]] = ri
	t.rows = append(t.rows, row)
	t.seqs = append(t.seqs, 0)
	return ri
}

// remove deletes rows[ri], moving the last row into its place.
func (t *tableData) remove(ri int) {
	last := len(t.rows) - 1
	delete(t.pkIndex, t.rows[ri][t.pkCol])
	if ri != last {
		t.rows[ri], t.seqs[ri] = t.rows[last], t.seqs[last]
		t.pkIndex[t.rows[ri][t.pkCol]] = ri
	}
	t.rows, t.seqs = t.rows[:last], t.seqs[:last]
}

// columnPositions maps stated insert columns to schema positions; an empty
// column list means "all columns in schema order".
func (t *tableData) columnPositions(cols []string) ([]int, error) {
	if len(cols) == 0 {
		pos := make([]int, len(t.schema))
		for i := range pos {
			pos[i] = i
		}
		return pos, nil
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		idx, ok := t.colIdx[strings.ToLower(c)]
		if !ok {
			return nil, fmt.Errorf("minisql: no column %q in table %q", c, t.name)
		}
		pos[i] = idx
	}
	return pos, nil
}

func (e *Engine) insert(s InsertStmt, args []Value) (int64, error) {
	t, err := e.getTable(s.Table)
	if err != nil {
		return 0, err
	}
	next := 0
	t.mu.Lock()
	defer t.mu.Unlock()
	pos, err := t.columnPositions(s.Columns)
	if err != nil {
		return 0, err
	}
	// Bind, coerce and key-check every row before changing any: a statement
	// is atomic, so one that fails leaves no row and no sequence number
	// behind.
	rows := make([][]Value, len(s.Rows))
	var fresh map[Value]bool // keys an earlier row of this INSERT adds
	if len(s.Rows) > 1 && !s.Replace {
		fresh = make(map[Value]bool, len(s.Rows))
	}
	for r, exprRow := range s.Rows {
		if len(exprRow) != len(pos) {
			return 0, fmt.Errorf("minisql: row has %d values, want %d", len(exprRow), len(pos))
		}
		row := make([]Value, len(t.schema))
		for i := range row {
			row[i] = null()
		}
		for i, ex := range exprRow {
			v, err := bind(ex, args, &next)
			if err != nil {
				return 0, err
			}
			cv, err := coerce(v, t.schema[pos[i]].Kind)
			if err != nil {
				return 0, err
			}
			row[pos[i]] = cv
		}
		pk := row[t.pkCol]
		if pk.isNull() {
			return 0, fmt.Errorf("minisql: NULL primary key in table %q", t.name)
		}
		if _, dup := t.pkIndex[pk]; (dup || fresh[pk]) && !s.Replace {
			return 0, fmt.Errorf("minisql: duplicate primary key %s in table %q", pk, t.name)
		}
		if fresh != nil {
			fresh[pk] = true
		}
		rows[r] = row
	}
	for _, row := range rows {
		ri, dup := t.pkIndex[row[t.pkCol]]
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

// candidateRows returns the indexes of rows matching the bound conditions,
// using the PK index when a `pk = v` term is present (the Janus fast path).
// A condition on a column the table lacks is an error.
func (t *tableData) candidateRows(conds []boundCond) ([]int, error) {
	pk := -1
	for i, c := range conds {
		idx, ok := t.colIdx[strings.ToLower(c.Column)]
		if !ok {
			return nil, fmt.Errorf("minisql: no column %q in table %q", c.Column, t.name)
		}
		if c.Op == OpEq && idx == t.pkCol && pk < 0 {
			pk = i
		}
	}
	if pk >= 0 {
		cv, err := coerce(conds[pk].Value, t.schema[t.pkCol].Kind)
		if err != nil {
			return []int{}, nil // un-coercible value matches nothing
		}
		if ri, found := t.pkIndex[cv]; found && t.rowMatches(ri, conds) {
			return []int{ri}, nil
		}
		return []int{}, nil
	}
	var out []int
	for i := range t.rows {
		if t.rowMatches(i, conds) {
			out = append(out, i)
		}
	}
	return out, nil
}

func (t *tableData) rowMatches(ri int, conds []boundCond) bool {
	for _, c := range conds {
		idx := t.colIdx[strings.ToLower(c.Column)]
		if !c.matches(t.rows[ri][idx]) {
			return false
		}
	}
	return true
}

func (e *Engine) selectRows(s SelectStmt, args []Value) (Result, error) {
	t, err := e.getTable(s.Table)
	if err != nil {
		return Result{}, err
	}
	next := 0
	conds, err := bindConds(s.Where, args, &next)
	if err != nil {
		return Result{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	idxs, err := t.candidateRows(conds)
	if err != nil {
		return Result{}, err
	}
	if s.Count {
		return Result{Columns: []string{"count"}, Rows: [][]Value{{Int(int64(len(idxs)))}}}, nil
	}

	// Projection.
	proj := make([]int, 0, len(t.schema))
	var cols []string
	if len(s.Columns) == 0 {
		for i, c := range t.schema {
			proj = append(proj, i)
			cols = append(cols, c.Name)
		}
	} else {
		for _, c := range s.Columns {
			idx, ok := t.colIdx[strings.ToLower(c)]
			if !ok {
				return Result{}, fmt.Errorf("minisql: no column %q in table %q", c, t.name)
			}
			proj = append(proj, idx)
			cols = append(cols, t.schema[idx].Name)
		}
	}

	if s.Order != nil {
		oi, ok := t.colIdx[strings.ToLower(s.Order.Column)]
		if !ok {
			return Result{}, fmt.Errorf("minisql: no column %q in table %q", s.Order.Column, t.name)
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			cmp := compare(t.rows[idxs[a]][oi], t.rows[idxs[b]][oi])
			if s.Order.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	if s.Limit >= 0 && len(idxs) > s.Limit {
		idxs = idxs[:s.Limit]
	}

	out := make([][]Value, 0, len(idxs))
	for _, ri := range idxs {
		row := make([]Value, len(proj))
		for i, ci := range proj {
			row[i] = t.rows[ri][ci]
		}
		out = append(out, row)
	}
	return Result{Columns: cols, Rows: out}, nil
}

func (e *Engine) update(s UpdateStmt, args []Value) (int64, error) {
	t, err := e.getTable(s.Table)
	if err != nil {
		return 0, err
	}
	// Bind SET expressions first (placeholder order: SET then WHERE).
	next := 0
	type setVal struct {
		col int
		val Value
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sets := make([]setVal, 0, len(s.Sets))
	for _, sv := range s.Sets {
		idx, ok := t.colIdx[strings.ToLower(sv.Column)]
		if !ok {
			return 0, fmt.Errorf("minisql: no column %q in table %q", sv.Column, t.name)
		}
		v, err := bind(sv.Expr, args, &next)
		if err != nil {
			return 0, err
		}
		cv, err := coerce(v, t.schema[idx].Kind)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setVal{idx, cv})
	}
	conds, err := bindConds(s.Where, args, &next)
	if err != nil {
		return 0, err
	}
	idxs, err := t.candidateRows(conds)
	if err != nil {
		return 0, err
	}
	// A new primary key is checked before any row changes, for the reason
	// insert gives: it must be free, and only one row can take it.
	for _, sv := range sets {
		if sv.col != t.pkCol {
			continue
		}
		for _, ri := range idxs {
			if equal(t.rows[ri][t.pkCol], sv.val) {
				continue
			}
			if _, dup := t.pkIndex[sv.val]; dup || len(idxs) > 1 {
				return 0, fmt.Errorf("minisql: duplicate primary key %s", sv.val)
			}
		}
	}
	for _, ri := range idxs {
		old := t.rows[ri][t.pkCol]
		changed := false
		for _, sv := range sets {
			changed = changed || t.rows[ri][sv.col] != sv.val
			t.rows[ri][sv.col] = sv.val
		}
		if !changed {
			continue // the same values again: nothing to number
		}
		if !equal(old, t.rows[ri][t.pkCol]) {
			// The row moved to another key: the old one reads as deleted.
			delete(t.pkIndex, old)
			t.pkIndex[t.rows[ri][t.pkCol]] = ri
			e.seq++
			t.bury(old, e.seq)
		}
		e.seq++
		t.stamp(ri, e.seq)
	}
	return int64(len(idxs)), nil
}

func (e *Engine) deleteRows(s DeleteStmt, args []Value) (int64, error) {
	t, err := e.getTable(s.Table)
	if err != nil {
		return 0, err
	}
	next := 0
	conds, err := bindConds(s.Where, args, &next)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idxs, err := t.candidateRows(conds)
	if err != nil {
		return 0, err
	}
	// Delete from the highest index down so swap-removal does not disturb
	// earlier candidates.
	sort.Sort(sort.Reverse(sort.IntSlice(idxs)))
	for _, ri := range idxs {
		pk := t.rows[ri][t.pkCol]
		t.remove(ri)
		e.seq++
		t.bury(pk, e.seq)
	}
	return int64(len(idxs)), nil
}
