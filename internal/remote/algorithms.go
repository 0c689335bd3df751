package remote

// JoinAlgorithm names a physical join implementation. Hive and Spark each
// support five (Section 4); the single-node RDBMS simulator supports three.
type JoinAlgorithm string

// Hive join algorithms.
const (
	HiveShuffleJoin         JoinAlgorithm = "hive.shuffle_join"
	HiveBroadcastJoin       JoinAlgorithm = "hive.broadcast_join" // a.k.a. map join
	HiveBucketMapJoin       JoinAlgorithm = "hive.bucket_map_join"
	HiveSortMergeBucketJoin JoinAlgorithm = "hive.sort_merge_bucket_join"
	HiveSkewJoin            JoinAlgorithm = "hive.skew_join"
)

// Spark join algorithms.
const (
	SparkBroadcastHashJoin JoinAlgorithm = "spark.broadcast_hash_join"
	SparkShuffleHashJoin   JoinAlgorithm = "spark.shuffle_hash_join"
	SparkSortMergeJoin     JoinAlgorithm = "spark.sort_merge_join"
	SparkBroadcastNLJoin   JoinAlgorithm = "spark.broadcast_nested_loop_join"
	SparkCartesianJoin     JoinAlgorithm = "spark.cartesian_product_join"
)

// Presto join algorithms (the MPP engine distributes either by
// repartitioning both sides or by replicating the build side).
const (
	PrestoPartitionedJoin JoinAlgorithm = "presto.partitioned_join"
	PrestoReplicatedJoin  JoinAlgorithm = "presto.replicated_join"
	PrestoCrossJoin       JoinAlgorithm = "presto.cross_join"
)

// RDBMS join algorithms.
const (
	RDBMSHashJoin       JoinAlgorithm = "rdbms.hash_join"
	RDBMSMergeJoin      JoinAlgorithm = "rdbms.merge_join"
	RDBMSNestedLoopJoin JoinAlgorithm = "rdbms.nested_loop_join"
)
