// Package catalog implements the master engine's metadata layer: table
// schemas, basic statistics (cardinality, row size, per-column distinct
// counts), and the foreign-table registry that records which remote system
// owns each table. The paper assumes Teradata "can collect basic statistics
// on remote tables, e.g., the number of rows, average row size, the number
// of distinct values in each column" (Section 2); this package is that store.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ColType enumerates the column types the synthetic workloads use.
type ColType int

// Supported column types.
const (
	Int ColType = iota
	Char
)

// String returns the type name.
func (t ColType) String() string {
	switch t {
	case Int:
		return "INTEGER"
	case Char:
		return "CHAR"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column describes one attribute. Duplication is the average number of times
// each distinct value repeats (the synthetic schema of Figure 10 names its
// columns a1, a2, a5, ... after exactly this factor); 0 means unknown.
type Column struct {
	Name        string  `json:"name"`
	Type        ColType `json:"type"`
	Width       int     `json:"width"` // bytes
	Duplication float64 `json:"duplication"`
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column `json:"columns"`
}

// Validate reports structural problems.
func (s Schema) Validate() error {
	if len(s.Columns) == 0 {
		return errors.New("catalog: schema has no columns")
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return errors.New("catalog: column with empty name")
		}
		if seen[c.Name] {
			return fmt.Errorf("catalog: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		if c.Width <= 0 {
			return fmt.Errorf("catalog: column %q has non-positive width %d", c.Name, c.Width)
		}
		if c.Duplication < 0 {
			return fmt.Errorf("catalog: column %q has negative duplication", c.Name)
		}
	}
	return nil
}

// RowSize returns the record width in bytes.
func (s Schema) RowSize() int {
	total := 0
	for _, c := range s.Columns {
		total += c.Width
	}
	return total
}

// Column finds a column by name.
func (s Schema) Column(name string) (Column, bool) {
	for _, c := range s.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// Table couples a name, schema, statistics, and the owning system. An empty
// System means the table is local to the master engine.
type Table struct {
	Name   string `json:"name"`
	Schema Schema `json:"schema"`
	Rows   int64  `json:"rows"`
	System string `json:"system"`
	// Replicas lists additional systems the same table is linked on. The
	// optimizer treats every copy alike: an operator over the table may run
	// on any of them (or on the master), and a transfer of the table ships
	// from the copy with the cheapest link. On a cost tie the owner comes
	// first, then the replicas in this order. Degraded re-planning drops the
	// copies on a failed or open-circuited remote. A copy is laid out like
	// the primary: PartitionedOn and SortedOn describe every copy.
	Replicas []string `json:"replicas,omitempty"`
	// PartitionedOn / SortedOn record physical layout properties on the
	// named column, which the sub-op applicability rules inspect.
	PartitionedOn string `json:"partitioned_on,omitempty"`
	SortedOn      string `json:"sorted_on,omitempty"`
}

// Validate reports structural problems.
func (t *Table) Validate() error {
	if t.Name == "" {
		return errors.New("catalog: table with empty name")
	}
	if err := t.Schema.Validate(); err != nil {
		return fmt.Errorf("table %q: %w", t.Name, err)
	}
	if t.Rows < 0 {
		return fmt.Errorf("catalog: table %q has negative row count", t.Name)
	}
	if t.PartitionedOn != "" {
		if _, ok := t.Schema.Column(t.PartitionedOn); !ok {
			return fmt.Errorf("catalog: table %q partitioned on unknown column %q", t.Name, t.PartitionedOn)
		}
	}
	if t.SortedOn != "" {
		if _, ok := t.Schema.Column(t.SortedOn); !ok {
			return fmt.Errorf("catalog: table %q sorted on unknown column %q", t.Name, t.SortedOn)
		}
	}
	seen := map[string]bool{t.System: true}
	for _, r := range t.Replicas {
		if r == "" {
			return fmt.Errorf("catalog: table %q has an empty replica system", t.Name)
		}
		if seen[r] {
			return fmt.Errorf("catalog: table %q lists system %q twice", t.Name, r)
		}
		seen[r] = true
	}
	return nil
}

// RowSize returns the record width in bytes.
func (t *Table) RowSize() int { return t.Schema.RowSize() }

// NDV estimates the number of distinct values of c, one of the table's
// columns, from its duplication factor (rows / duplication, at least 1).
// Columns with unknown duplication report the row count (assume unique).
func (t *Table) NDV(c Column) float64 {
	if t.Rows == 0 {
		return 0
	}
	if c.Duplication <= 1 {
		return float64(t.Rows)
	}
	ndv := float64(t.Rows) / c.Duplication
	if ndv < 1 {
		ndv = 1
	}
	return ndv
}

// Catalog is a thread-safe table registry. Every mutation bumps a
// generation counter so derived state (the optimizer's plan cache) can
// detect staleness cheaply.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	gen    atomic.Uint64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Register validates and adds a table; re-registering an existing name fails.
func (c *Catalog) Register(t *Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name]; ok {
		return fmt.Errorf("catalog: table %q already registered", t.Name)
	}
	c.tables[t.Name] = t
	c.gen.Add(1)
	return nil
}

// Generation returns the mutation counter: it advances on every Register,
// never decreases, and is safe to read concurrently.
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// Lookup finds a table by name.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// List returns all tables sorted by name.
func (c *Catalog) List() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BySystem returns all tables owned by the named system, sorted by name.
func (c *Catalog) BySystem(system string) []*Table {
	var out []*Table
	for _, t := range c.List() {
		if t.System == system {
			out = append(out, t)
		}
	}
	return out
}

// Len returns the number of registered tables.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tables)
}
