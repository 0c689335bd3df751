// Package datagen builds the synthetic evaluation dataset of Figure 10:
// 120 tables T_x_y crossing 20 cardinality configurations
// (x = k·10^p for k ∈ {1,2,4,6,8}, p ∈ {4..7}) with 6 record sizes
// (y ∈ {40, 70, 100, 250, 500, 1000} bytes). Every table shares the schema
// (a1, a2, a5, a10, a20, a50, a100, z, dummy) where column a_i has
// duplication factor i (each value appears i times), z is all zeros, and
// dummy is a character column padding the record to the target size.
//
// Tables are registered as statistics only — the remote-system simulators
// execute over statistics — but small tables can also be materialized into
// actual rows for the row-level execution engine used by the examples.
package datagen

import (
	"fmt"

	"intellisphere/internal/catalog"
)

// DupFactors lists the duplication factors of the a_i columns.
func DupFactors() []int { return []int{1, 2, 5, 10, 20, 50, 100} }

// ColumnNames lists the materialized columns in Row order: a<d> for every
// duplication factor d, then z. It is the one place the names are spelled
// (ColumnIndex is a search of it).
func ColumnNames() [8]string {
	return [8]string{"a1", "a2", "a5", "a10", "a20", "a50", "a100", "z"}
}

// Cardinalities returns the 20 row-count configurations of Figure 10.
func Cardinalities() []int64 {
	ks := []int64{1, 2, 4, 6, 8}
	var out []int64
	for _, p := range []int64{10000, 100000, 1000000, 10000000} {
		for _, k := range ks {
			out = append(out, k*p)
		}
	}
	return out
}

// RecordSizes returns the 6 record-size configurations of Figure 10.
func RecordSizes() []int { return []int{40, 70, 100, 250, 500, 1000} }

// fixedWidth is the width of the eight integer columns (a1..a100, z).
const fixedWidth = 8 * 4

// Schema returns the Figure 10 schema padded to the given record size.
func Schema(recordSize int) (catalog.Schema, error) {
	if recordSize <= fixedWidth {
		return catalog.Schema{}, fmt.Errorf("datagen: record size %d must exceed the %d-byte fixed columns", recordSize, fixedWidth)
	}
	cols := make([]catalog.Column, 0, 9)
	names := ColumnNames()
	for i, d := range DupFactors() {
		cols = append(cols, catalog.Column{
			Name:        names[i],
			Type:        catalog.Int,
			Width:       4,
			Duplication: float64(d),
		})
	}
	cols = append(cols,
		catalog.Column{Name: "z", Type: catalog.Int, Width: 4, Duplication: 0},
		catalog.Column{Name: "dummy", Type: catalog.Char, Width: recordSize - fixedWidth},
	)
	return catalog.Schema{Columns: cols}, nil
}

// TableName returns the Figure 10 naming convention T<x>_<y>.
func TableName(rows int64, recordSize int) string {
	return fmt.Sprintf("t%d_%d", rows, recordSize)
}

// Table builds a single synthetic table owned by the named system.
func Table(rows int64, recordSize int, system string) (*catalog.Table, error) {
	s, err := Schema(recordSize)
	if err != nil {
		return nil, err
	}
	t := &catalog.Table{
		Name:   TableName(rows, recordSize),
		Schema: s,
		Rows:   rows,
		System: system,
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Tables builds all 120 tables of Figure 10 owned by the named system.
func Tables(system string) ([]*catalog.Table, error) {
	var out []*catalog.Table
	for _, rows := range Cardinalities() {
		for _, size := range RecordSizes() {
			t, err := Table(rows, size, system)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// MaterializeLimit is the largest table Materialize builds, and therefore the
// largest relation that can exist as rows: the row engine caps its results at
// the same size.
const MaterializeLimit = 4_000_000

// Row is one materialized record: the eight integer columns in schema order
// (a1, a2, a5, a10, a20, a50, a100, z). The dummy padding is not
// materialized.
type Row [8]int32

// Materialize generates actual rows honoring the schema's semantics:
// column a_i holds rowIndex/i so each value appears exactly i times, values
// of a smaller table are a subset of any larger table's values (which is
// what lets Figure 10's join workload control output cardinalities), and z
// is always zero. Intended for the small tables the row engine executes:
// at most MaterializeLimit rows.
func Materialize(rows int64) ([]Row, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("datagen: cannot materialize %d rows", rows)
	}
	if rows > MaterializeLimit {
		return nil, fmt.Errorf("datagen: refusing to materialize %d rows (limit %d); use statistics-only execution", rows, MaterializeLimit)
	}
	dups := DupFactors()
	out := make([]Row, rows)
	for i := int64(0); i < rows; i++ {
		var r Row
		for c, d := range dups {
			r[c] = int32(i / int64(d))
		}
		r[7] = 0 // z
		out[i] = r
	}
	return out, nil
}

// ColumnIndex maps a Figure 10 column name to its Row index.
func ColumnIndex(name string) (int, error) {
	for i, have := range ColumnNames() {
		if have == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("datagen: column %q is not materialized", name)
}
