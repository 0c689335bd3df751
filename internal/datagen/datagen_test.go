package datagen

import (
	"testing"
	"testing/quick"

	"intellisphere/internal/catalog"
)

func TestCardinalities(t *testing.T) {
	cs := Cardinalities()
	if len(cs) != 20 {
		t.Fatalf("got %d cardinalities, want 20", len(cs))
	}
	if cs[0] != 10000 {
		t.Errorf("first = %d, want 10000", cs[0])
	}
	if cs[19] != 80000000 {
		t.Errorf("last = %d, want 8e7", cs[19])
	}
	seen := map[int64]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Errorf("duplicate cardinality %d", c)
		}
		seen[c] = true
	}
}

func TestRecordSizes(t *testing.T) {
	want := []int{40, 70, 100, 250, 500, 1000}
	got := RecordSizes()
	if len(got) != len(want) {
		t.Fatalf("got %d sizes", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("size[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSchemaWidths(t *testing.T) {
	for _, size := range RecordSizes() {
		s, err := Schema(size)
		if err != nil {
			t.Fatalf("Schema(%d): %v", size, err)
		}
		if got := s.RowSize(); got != size {
			t.Errorf("Schema(%d).RowSize = %d", size, got)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Schema(%d) invalid: %v", size, err)
		}
		for _, d := range DupFactors() {
			c, ok := s.Column(columnName(d))
			if !ok {
				t.Fatalf("Schema(%d) missing a%d", size, d)
			}
			if c.Duplication != float64(d) {
				t.Errorf("a%d duplication = %v", d, c.Duplication)
			}
		}
	}
	if _, err := Schema(32); err == nil {
		t.Error("record size 32 (== fixed width) accepted")
	}
}

func columnName(d int) string {
	switch d {
	case 1:
		return "a1"
	case 2:
		return "a2"
	case 5:
		return "a5"
	case 10:
		return "a10"
	case 20:
		return "a20"
	case 50:
		return "a50"
	case 100:
		return "a100"
	}
	return ""
}

func TestTables120(t *testing.T) {
	tables, err := Tables("hive")
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	if len(tables) != 120 {
		t.Fatalf("got %d tables, want 120", len(tables))
	}
	names := map[string]bool{}
	for _, tb := range tables {
		if names[tb.Name] {
			t.Errorf("duplicate table name %s", tb.Name)
		}
		names[tb.Name] = true
		if tb.System != "hive" {
			t.Errorf("table %s system = %q", tb.Name, tb.System)
		}
	}
	if !names["t10000_40"] || !names["t80000000_1000"] {
		t.Error("expected corner tables missing")
	}
}

func TestRegister(t *testing.T) {
	c := catalog.New()
	if err := Register(c, "hive"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if c.Len() != 120 {
		t.Errorf("catalog has %d tables, want 120", c.Len())
	}
	tb, err := c.Lookup("t1000000_250")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	ndv, err := tb.NDV("a10")
	if err != nil {
		t.Fatalf("NDV: %v", err)
	}
	if ndv != 100000 {
		t.Errorf("NDV(a10) on 1e6 rows = %v, want 1e5", ndv)
	}
	// Register twice must fail cleanly.
	if err := Register(c, "hive"); err == nil {
		t.Error("double registration accepted")
	}
}

func TestMaterializeSemantics(t *testing.T) {
	rows, err := Materialize(1000)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if len(rows) != 1000 {
		t.Fatalf("got %d rows", len(rows))
	}
	// a1 unique, a5 repeats 5 times, z all zero.
	counts := map[int32]int{}
	for _, r := range rows {
		counts[r[2]]++ // a5 is index 2
		if r[7] != 0 {
			t.Fatal("z must be zero")
		}
	}
	for v, n := range counts {
		if n != 5 {
			t.Errorf("a5 value %d appears %d times, want 5", v, n)
		}
	}
	// Subset property: first 100 a1 values of a bigger table cover a smaller.
	small, _ := Materialize(100)
	for i, r := range small {
		if r[0] != rows[i][0] {
			t.Error("smaller table a1 values must be a prefix subset of larger")
			break
		}
	}
}

func TestMaterializeLimits(t *testing.T) {
	if _, err := Materialize(0); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := Materialize(100_000_000); err == nil {
		t.Error("huge materialization accepted")
	}
}

func TestColumnIndex(t *testing.T) {
	idx, err := ColumnIndex("a20")
	if err != nil || idx != 4 {
		t.Errorf("ColumnIndex(a20) = %d, %v", idx, err)
	}
	idx, err = ColumnIndex("z")
	if err != nil || idx != 7 {
		t.Errorf("ColumnIndex(z) = %d, %v", idx, err)
	}
	if _, err := ColumnIndex("dummy"); err == nil {
		t.Error("dummy should not be materialized")
	}
}

// TestColumnNamesAgree holds the two spellings of the layout together: the
// name list ColumnIndex searches and the duplication factors behind a<d>.
func TestColumnNamesAgree(t *testing.T) {
	names, dups := ColumnNames(), DupFactors()
	for i, name := range names {
		if idx, err := ColumnIndex(name); err != nil || idx != i {
			t.Errorf("ColumnIndex(%q) = %d, %v; want %d", name, idx, err, i)
		}
		if i < len(dups) && name != columnName(dups[i]) {
			t.Errorf("ColumnNames()[%d] = %q, want %q", i, name, columnName(dups[i]))
		}
	}
	if len(dups) != len(names)-1 || names[len(names)-1] != "z" {
		t.Errorf("layout = %v over %v, want one a<d> per factor then z", names, dups)
	}
}

// Property: for every duplication factor d, each value of a_d appears at
// most d times, and NDV(a_d) ≈ rows/d.
func TestMaterializeDuplicationProperty(t *testing.T) {
	f := func(n uint16, dSel uint8) bool {
		rows := int64(n%2000) + 100
		dups := DupFactors()
		d := dups[int(dSel)%len(dups)]
		idx, err := ColumnIndex(columnName(d))
		if err != nil {
			return false
		}
		data, err := Materialize(rows)
		if err != nil {
			return false
		}
		counts := map[int32]int{}
		for _, r := range data {
			counts[r[idx]]++
		}
		for _, c := range counts {
			if c > d {
				return false
			}
		}
		wantNDV := (rows + int64(d) - 1) / int64(d)
		return int64(len(counts)) == wantNDV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
