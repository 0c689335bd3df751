package core

import (
	"errors"
	"testing"

	"intellisphere/internal/plan"
)

// scanRows answers a scan with its input row count and rejects empty scans.
type scanRows struct{ Estimator }

func (scanRows) EstimateScan(spec plan.ScanSpec) (Estimate, error) {
	if spec.InputRows == 0 {
		return Estimate{}, ErrUnsupported
	}
	return Estimate{Seconds: spec.InputRows}, nil
}

// The group helpers are the scalar call per spec: results in spec order, and
// the first failing spec fails the group.
func TestEstimateScansCallsPerSpec(t *testing.T) {
	got, err := EstimateScans(scanRows{}, []plan.ScanSpec{{InputRows: 3}, {InputRows: 1}, {InputRows: 3}})
	if err != nil || len(got) != 3 || got[0].Seconds != 3 || got[1].Seconds != 1 || got[2].Seconds != 3 {
		t.Errorf("EstimateScans = %+v, %v", got, err)
	}
	if _, err := EstimateScans(scanRows{}, []plan.ScanSpec{{InputRows: 3}, {}}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("a failing spec: err = %v, want ErrUnsupported", err)
	}
	if got, err := EstimateScans(scanRows{}, nil); err != nil || len(got) != 0 {
		t.Errorf("empty group: %+v, %v", got, err)
	}
}
