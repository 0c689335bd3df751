package cluster

import (
	"testing"
	"testing/quick"
)

func TestDefaultHiveValid(t *testing.T) {
	c := DefaultHive()
	if err := c.Validate(); err != nil {
		t.Fatalf("DefaultHive invalid: %v", err)
	}
	if got := c.Slots(); got != 6 {
		t.Errorf("Slots = %d, want 6 (3 data nodes × 2 cores)", got)
	}
}

func TestValidateErrors(t *testing.T) {
	base := DefaultHive()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty name", func(c *Config) { c.Name = "" }},
		{"zero data nodes", func(c *Config) { c.DataNodes = 0 }},
		{"more data nodes than nodes", func(c *Config) { c.DataNodes = c.Nodes + 1 }},
		{"zero cores", func(c *Config) { c.CoresPerNode = 0 }},
		{"zero memory", func(c *Config) { c.MemoryPerNode = 0 }},
		{"zero block", func(c *Config) { c.DFSBlockBytes = 0 }},
		{"bad memory fraction", func(c *Config) { c.MemoryFraction = 1.5 }},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestNumTasks(t *testing.T) {
	c := DefaultHive()
	block := float64(c.DFSBlockBytes)
	cases := []struct {
		bytes float64
		want  int
	}{
		{0, 1},
		{-5, 1},
		{1, 1},
		{block, 1},
		{block + 1, 2},
		{10 * block, 10},
	}
	for _, tc := range cases {
		if got := c.NumTasks(tc.bytes); got != tc.want {
			t.Errorf("NumTasks(%v) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestTaskWaves(t *testing.T) {
	c := DefaultHive() // 6 slots
	cases := []struct{ tasks, want int }{
		{0, 1}, {1, 1}, {6, 1}, {7, 2}, {12, 2}, {13, 3},
	}
	for _, tc := range cases {
		if got := c.TaskWaves(tc.tasks); got != tc.want {
			t.Errorf("TaskWaves(%d) = %d, want %d", tc.tasks, got, tc.want)
		}
	}
}

func TestFitsInMemory(t *testing.T) {
	c := DefaultHive()
	budget := c.HashTableBudget()
	if budget <= 0 {
		t.Fatalf("budget = %v", budget)
	}
	if !c.FitsInMemory(budget) {
		t.Error("exact budget should fit")
	}
	if c.FitsInMemory(budget + 1) {
		t.Error("budget+1 should not fit")
	}
}

// Property: waves never decrease when input bytes grow, and waves*slots
// always covers the task count.
func TestWavesMonotoneProperty(t *testing.T) {
	c := DefaultHive()
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		wx, wy := c.TaskWaves(c.NumTasks(x*1e5)), c.TaskWaves(c.NumTasks(y*1e5))
		if wx > wy {
			return false
		}
		tasks := c.NumTasks(y * 1e5)
		return c.TaskWaves(tasks)*c.Slots() >= tasks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBroadcastLimit(t *testing.T) {
	c := DefaultHive()
	// Default: 64 MB capped by the hash budget.
	limit := c.BroadcastLimit()
	if limit != 64<<20 {
		t.Errorf("limit = %v, want 64 MB (budget %v is larger)", limit, c.HashTableBudget())
	}
	if !c.BroadcastFits(limit) || c.BroadcastFits(limit+1) {
		t.Error("BroadcastFits boundary wrong")
	}
	// Explicit threshold wins.
	c.BroadcastThreshold = 10 << 20
	if got := c.BroadcastLimit(); got != 10<<20 {
		t.Errorf("explicit limit = %v", got)
	}
	// A tiny memory budget caps the default.
	c = DefaultHive()
	c.MemoryPerNode = 64 << 20 // 64 MB node → budget 8 MB
	if got := c.BroadcastLimit(); got != c.HashTableBudget() {
		t.Errorf("budget-capped limit = %v, want %v", got, c.HashTableBudget())
	}
}

func TestWavesForBytes(t *testing.T) {
	c := DefaultHive()
	if got := c.TaskWaves(c.NumTasks(0)); got != 1 {
		t.Errorf("waves for 0 bytes = %d", got)
	}
	// 13 blocks over 6 slots → 3 waves.
	if got := c.TaskWaves(c.NumTasks(float64(c.DFSBlockBytes) * 12.5)); got != 3 {
		t.Errorf("waves for 12.5 blocks = %d, want 3", got)
	}
}
