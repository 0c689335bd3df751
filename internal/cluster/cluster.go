// Package cluster models the physical shape of a remote system's cluster:
// nodes, cores, memory, and distributed-file-system block math. The paper's
// cost formulas (Section 4, Figure 6) are written in terms of quantities the
// cluster shape determines — the total parallelism ("slots"), the number of
// tasks a job splits into, and the number of cascaded task waves
// (NumTaskWaves = ceil(tasks / slots)) — so those computations live here and
// are shared by the remote-system simulators and the sub-operator costing
// formulas.
package cluster

import (
	"errors"
	"fmt"
)

// Config describes one cluster. The defaults produced by DefaultHive mirror
// the paper's evaluation cluster: four nodes (one master, three data nodes),
// 8 GB of memory and two cores per node, 128 MB DFS blocks.
type Config struct {
	Name           string  `json:"name"`
	Nodes          int     `json:"nodes"`           // total nodes, including the master
	DataNodes      int     `json:"data_nodes"`      // nodes that store data and run tasks
	CoresPerNode   int     `json:"cores_per_node"`  // task slots per data node
	MemoryPerNode  int64   `json:"memory_per_node"` // bytes
	DFSBlockBytes  int64   `json:"dfs_block_bytes"` // split size for task planning
	Replication    int     `json:"replication"`     // DFS replication factor
	MemoryFraction float64 `json:"memory_fraction"` // share of node memory usable by one hash table
	// BroadcastThreshold caps the bytes an engine will auto-convert into a
	// broadcast/map join (Hive's noconditionaltask.size, Spark's
	// autoBroadcastJoinThreshold). 0 selects the 64 MB default, capped by
	// the hash-table memory budget.
	BroadcastThreshold int64 `json:"broadcast_threshold,omitempty"`
}

// DefaultHive returns the paper's 4-node Hive VM cluster shape.
func DefaultHive() Config {
	return Config{
		Name:           "hive-vm",
		Nodes:          4,
		DataNodes:      3,
		CoresPerNode:   2,
		MemoryPerNode:  8 << 30, // 8 GB
		DFSBlockBytes:  128 << 20,
		Replication:    3,
		MemoryFraction: 0.25,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.Name == "" {
		return errors.New("cluster: name is required")
	}
	if c.DataNodes <= 0 || c.Nodes < c.DataNodes {
		return fmt.Errorf("cluster %q: need 0 < data nodes (%d) <= nodes (%d)", c.Name, c.DataNodes, c.Nodes)
	}
	if c.CoresPerNode <= 0 {
		return fmt.Errorf("cluster %q: cores per node must be positive", c.Name)
	}
	if c.MemoryPerNode <= 0 {
		return fmt.Errorf("cluster %q: memory per node must be positive", c.Name)
	}
	if c.DFSBlockBytes <= 0 {
		return fmt.Errorf("cluster %q: DFS block size must be positive", c.Name)
	}
	if c.MemoryFraction <= 0 || c.MemoryFraction > 1 {
		return fmt.Errorf("cluster %q: memory fraction %v must be in (0,1]", c.Name, c.MemoryFraction)
	}
	return nil
}

// Slots returns the total task parallelism of the cluster.
func (c Config) Slots() int { return c.DataNodes * c.CoresPerNode }

// NumTasks returns how many tasks a job over inputBytes splits into — one
// per DFS block, with a minimum of one task.
func (c Config) NumTasks(inputBytes float64) int {
	if inputBytes <= 0 {
		return 1
	}
	tasks := int((inputBytes + float64(c.DFSBlockBytes) - 1) / float64(c.DFSBlockBytes))
	if tasks < 1 {
		tasks = 1
	}
	return tasks
}

// TaskWaves returns the number of cascaded task waves for the given task
// count: ceil(tasks / slots). This is the NumTaskWaves term of Figure 6.
func (c Config) TaskWaves(tasks int) int {
	slots := c.Slots()
	if tasks < 1 {
		tasks = 1
	}
	return (tasks + slots - 1) / slots
}

// HashTableBudget returns the bytes one task may devote to an in-memory
// hash table before spilling.
func (c Config) HashTableBudget() float64 {
	return float64(c.MemoryPerNode) * c.MemoryFraction / float64(c.CoresPerNode)
}

// FitsInMemory reports whether a hash-build of the given size stays within
// a single task's memory budget — the regime switch behind the HashBuild
// sub-operator's two models (Figure 13(f)).
func (c Config) FitsInMemory(bytes float64) bool {
	return bytes <= c.HashTableBudget()
}

// BroadcastLimit returns the auto-broadcast size threshold in bytes.
func (c Config) BroadcastLimit() float64 {
	limit := float64(c.BroadcastThreshold)
	if limit <= 0 {
		limit = 64 << 20
	}
	if budget := c.HashTableBudget(); budget < limit {
		limit = budget
	}
	return limit
}

// BroadcastFits reports whether an engine would auto-convert a join with a
// small side of the given size into a broadcast join.
func (c Config) BroadcastFits(bytes float64) bool {
	return bytes <= c.BroadcastLimit()
}
