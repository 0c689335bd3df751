package plan

import (
	"testing"
	"testing/quick"
)

func validJoin() JoinSpec {
	return JoinSpec{
		Left:       TableSide{Rows: 1e6, RowSize: 100, ProjectedSize: 40, KeyNDV: 1e6},
		Right:      TableSide{Rows: 1e5, RowSize: 300, ProjectedSize: 50, KeyNDV: 1e5},
		OutputRows: 1e5,
	}
}

func TestJoinSpecDimsOrder(t *testing.T) {
	j := validJoin()
	d := j.Dims()
	want := []float64{100, 1e6, 300, 1e5, 40, 50, 1e5}
	if len(d) != 7 {
		t.Fatalf("join has %d dims, want 7", len(d))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Dims[%d] = %v, want %v (%s)", i, d[i], want[i], JoinDimNames()[i])
		}
	}
	if len(JoinDimNames()) != 7 {
		t.Error("JoinDimNames must align with Dims")
	}
}

func TestJoinSpecValidate(t *testing.T) {
	j := validJoin()
	if err := j.Validate(); err != nil {
		t.Fatalf("valid join rejected: %v", err)
	}
	bad := j
	bad.Left.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero left rows accepted")
	}
	bad = j
	bad.Right.ProjectedSize = 1000 // exceeds row size
	if err := bad.Validate(); err == nil {
		t.Error("projected size > row size accepted")
	}
	bad = j
	bad.OutputRows = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative output accepted")
	}
}

func TestJoinSides(t *testing.T) {
	j := validJoin() // left = 1e8 bytes, right = 3e7 bytes
	small, isLeft := j.SmallSide()
	if isLeft {
		t.Error("right side should be smaller")
	}
	if small.Rows != 1e5 {
		t.Errorf("small side rows = %v, want 1e5", small.Rows)
	}
	if big := j.BigSide(); big.Rows != 1e6 {
		t.Errorf("big side rows = %v, want 1e6", big.Rows)
	}
}

func TestJoinOutputRowSize(t *testing.T) {
	j := validJoin()
	if got := j.OutputRowSize(); got != 90 {
		t.Errorf("OutputRowSize = %v, want 90", got)
	}
	j.Left.ProjectedSize = 0
	j.Right.ProjectedSize = 0
	if got := j.OutputRowSize(); got != 1 {
		t.Errorf("zero projection OutputRowSize = %v, want 1 floor", got)
	}
}

func TestAggSpec(t *testing.T) {
	a := AggSpec{InputRows: 1e6, InputRowSize: 100, OutputRows: 1e4, OutputRowSize: 24, NumAggregates: 3}
	if err := a.Validate(); err != nil {
		t.Fatalf("valid agg rejected: %v", err)
	}
	d := a.Dims()
	want := []float64{1e6, 100, 1e4, 24}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Dims[%d] = %v, want %v (%s)", i, d[i], want[i], AggDimNames()[i])
		}
	}
	bad := a
	bad.OutputRows = 2e6
	if err := bad.Validate(); err == nil {
		t.Error("output > input accepted")
	}
	bad = a
	bad.NumAggregates = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative aggregate count accepted")
	}
	bad = a
	bad.InputRowSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero input row size accepted")
	}
}

func TestScanSpec(t *testing.T) {
	s := ScanSpec{InputRows: 1000, InputRowSize: 100, Selectivity: 0.25, OutputRowSize: 40}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid scan rejected: %v", err)
	}
	if got := s.OutputRows(); got != 250 {
		t.Errorf("OutputRows = %v, want 250", got)
	}
	bad := s
	bad.Selectivity = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero selectivity accepted")
	}
	bad = s
	bad.Selectivity = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("selectivity > 1 accepted")
	}
	bad = s
	bad.OutputRowSize = 200
	if err := bad.Validate(); err == nil {
		t.Error("output wider than input accepted")
	}
}

// Property: the small side never has more bytes than the big side.
func TestSmallSideProperty(t *testing.T) {
	f := func(lr, ls, rr, rs uint16) bool {
		j := JoinSpec{
			Left:  TableSide{Rows: float64(lr) + 1, RowSize: float64(ls) + 1},
			Right: TableSide{Rows: float64(rr) + 1, RowSize: float64(rs) + 1},
		}
		small, _ := j.SmallSide()
		return small.Bytes() <= j.BigSide().Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
