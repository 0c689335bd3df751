package catalog

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func sampleSchema() Schema {
	return Schema{Columns: []Column{
		{Name: "a1", Type: Int, Width: 4, Duplication: 1},
		{Name: "a5", Type: Int, Width: 4, Duplication: 5},
		{Name: "z", Type: Int, Width: 4, Duplication: 0},
		{Name: "dummy", Type: Char, Width: 88},
	}}
}

func sampleTable(name string) *Table {
	return &Table{Name: name, Schema: sampleSchema(), Rows: 1000, System: "hive"}
}

func TestSchemaRowSize(t *testing.T) {
	s := sampleSchema()
	if got := s.RowSize(); got != 100 {
		t.Errorf("RowSize = %d, want 100", got)
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := sampleSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	cases := []struct {
		name string
		s    Schema
	}{
		{"empty", Schema{}},
		{"unnamed column", Schema{Columns: []Column{{Width: 4}}}},
		{"duplicate", Schema{Columns: []Column{{Name: "a", Width: 4}, {Name: "a", Width: 4}}}},
		{"zero width", Schema{Columns: []Column{{Name: "a", Width: 0}}}},
		{"negative duplication", Schema{Columns: []Column{{Name: "a", Width: 4, Duplication: -1}}}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestColTypeString(t *testing.T) {
	if Int.String() != "INTEGER" || Char.String() != "CHAR" {
		t.Error("unexpected type names")
	}
	if ColType(9).String() != "ColType(9)" {
		t.Error("unexpected fallback")
	}
}

func TestTableNDV(t *testing.T) {
	tb := sampleTable("t")
	col := func(name string) Column {
		c, ok := tb.Schema.Column(name)
		if !ok {
			t.Fatalf("no column %q", name)
		}
		return c
	}
	if ndv := tb.NDV(col("a1")); ndv != 1000 {
		t.Errorf("NDV(a1) = %v, want 1000 (unique)", ndv)
	}
	if ndv := tb.NDV(col("a5")); ndv != 200 {
		t.Errorf("NDV(a5) = %v, want 200", ndv)
	}
	if ndv := tb.NDV(col("z")); ndv != 1000 { // unknown duplication: assume unique
		t.Errorf("NDV(z) = %v, want 1000", ndv)
	}
	empty := sampleTable("e")
	empty.Rows = 0
	if ndv := empty.NDV(col("a1")); ndv != 0 {
		t.Errorf("NDV of empty table = %v, want 0", ndv)
	}
}

func TestTableValidate(t *testing.T) {
	tb := sampleTable("t")
	if err := tb.Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	bad := sampleTable("")
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	bad = sampleTable("t")
	bad.Rows = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative rows accepted")
	}
	bad = sampleTable("t")
	bad.PartitionedOn = "missing"
	if err := bad.Validate(); err == nil {
		t.Error("bad partition column accepted")
	}
	bad = sampleTable("t")
	bad.SortedOn = "missing"
	if err := bad.Validate(); err == nil {
		t.Error("bad sort column accepted")
	}
}

func TestTableReplicaValidation(t *testing.T) {
	tb := sampleTable("t")
	tb.System = "hive"
	tb.Replicas = []string{"spark", "presto"}
	if err := tb.Validate(); err != nil {
		t.Fatalf("valid replicas rejected: %v", err)
	}
	tb.Replicas = []string{""}
	if err := tb.Validate(); err == nil {
		t.Error("empty replica name accepted")
	}
	tb.Replicas = []string{"spark", "spark"}
	if err := tb.Validate(); err == nil {
		t.Error("duplicate replica accepted")
	}
	tb.Replicas = []string{"hive"}
	if err := tb.Validate(); err == nil {
		t.Error("replica equal to the owner accepted")
	}
}

func TestCatalogCRUD(t *testing.T) {
	c := New()
	if err := c.Register(sampleTable("t1")); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.Register(sampleTable("t1")); err == nil {
		t.Error("duplicate registration accepted")
	}
	tb, err := c.Lookup("t1")
	if err != nil || tb.Name != "t1" {
		t.Fatalf("Lookup: %v %v", tb, err)
	}
	if _, err := c.Lookup("nope"); err == nil {
		t.Error("lookup of missing table succeeded")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCatalogListSortedAndBySystem(t *testing.T) {
	c := New()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		tb := sampleTable(name)
		if name == "mid" {
			tb.System = "spark"
		}
		if err := c.Register(tb); err != nil {
			t.Fatalf("Register(%s): %v", name, err)
		}
	}
	list := c.List()
	if len(list) != 3 || list[0].Name != "alpha" || list[2].Name != "zeta" {
		t.Errorf("List not sorted: %v", list)
	}
	hive := c.BySystem("hive")
	if len(hive) != 2 {
		t.Errorf("BySystem(hive) = %d tables, want 2", len(hive))
	}
	if got := c.BySystem("none"); len(got) != 0 {
		t.Errorf("BySystem(none) = %d tables, want 0", len(got))
	}
}

func TestCatalogConcurrent(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			if err := c.Register(sampleTable(name)); err != nil {
				t.Errorf("Register(%s): %v", name, err)
			}
			if _, err := c.Lookup(name); err != nil {
				t.Errorf("Lookup(%s): %v", name, err)
			}
			c.List()
		}(i)
	}
	wg.Wait()
	if c.Len() != 16 {
		t.Errorf("Len = %d, want 16", c.Len())
	}
}

// Property: NDV is always in [1, rows] for non-empty tables with positive
// duplication, and rows/duplication when duplication > 1 divides evenly.
func TestNDVBoundsProperty(t *testing.T) {
	f := func(rows uint32, dup uint8) bool {
		r := int64(rows%1000000) + 1
		d := float64(dup%100) + 1
		tb := &Table{
			Name: "p",
			Schema: Schema{Columns: []Column{
				{Name: "c", Width: 4, Duplication: d},
			}},
			Rows: r,
		}
		ndv := tb.NDV(tb.Schema.Columns[0])
		return ndv >= 1 && ndv <= float64(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tb := sampleTable("orders")
	tb.PartitionedOn = "a1"
	tb.SortedOn = "a1"
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Name != tb.Name || back.Rows != tb.Rows || back.System != tb.System {
		t.Errorf("restored = %+v", back)
	}
	if back.RowSize() != tb.RowSize() {
		t.Errorf("schema lost: %d vs %d", back.RowSize(), tb.RowSize())
	}
	if back.PartitionedOn != "a1" || back.SortedOn != "a1" {
		t.Error("layout flags lost")
	}
	c1, _ := tb.Schema.Column("a5")
	c2, ok := back.Schema.Column("a5")
	if ndv1, ndv2 := tb.NDV(c1), back.NDV(c2); !ok || ndv1 != ndv2 {
		t.Errorf("NDV changed: %v vs %v (column restored: %v)", ndv1, ndv2, ok)
	}
}
