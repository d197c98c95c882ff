package minisql

import "sort"

// tableNames returns the names of all tables, sorted.
func (e *Engine) tableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// schemaOf returns the column definitions of a table.
func (e *Engine) schemaOf(table string) ([]ColumnDef, error) {
	t, err := e.getTable(table)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]ColumnDef, len(t.schema))
	copy(out, t.schema)
	return out, nil
}

// rowCount returns the number of rows in a table.
func (e *Engine) rowCount(table string) (int, error) {
	t, err := e.getTable(table)
	if err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows), nil
}
