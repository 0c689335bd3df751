package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeAndContext(t *testing.T) {
	tr := New("SELECT 1")
	ctx := ContextWithSpan(context.Background(), tr.Root)

	ctx2, parse := Start(ctx, "parse")
	if parse == nil {
		t.Fatal("Start on traced context returned nil span")
	}
	parse.End()
	if SpanFromContext(ctx2) != parse {
		t.Error("child context does not carry the child span")
	}

	ctx3, plan := Start(ctx, "plan")
	plan.SetAttr("cache", "miss")
	_, cost := Start(ctx3, "cost")
	cost.SetSystem("hive")
	cost.SetInt("join", 1)
	cost.SetFloat("estimated_sec", 1.5)
	cost.End()
	plan.End()
	tr.Finish(nil)

	root := tr.Root
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	if got := plan.Attr("cache"); got != "miss" {
		t.Errorf("plan cache attr = %q", got)
	}
	if got := cost.Attr("estimated_sec"); got != "1.5" {
		t.Errorf("cost estimated_sec attr = %q", got)
	}
	if cost.System != "hive" {
		t.Errorf("cost system = %q", cost.System)
	}
	if tr.DurationNanos <= 0 || root.DurationNanos != tr.DurationNanos {
		t.Errorf("trace duration %d, root %d", tr.DurationNanos, root.DurationNanos)
	}
	// Children fit inside their parent: start offset and duration both
	// bounded by the root's window.
	for _, c := range root.Children {
		if c.StartNanos < 0 || c.StartNanos > root.DurationNanos {
			t.Errorf("child %q start %d outside root window %d", c.Name, c.StartNanos, root.DurationNanos)
		}
		if c.DurationNanos < 0 || c.StartNanos+c.DurationNanos > root.DurationNanos {
			t.Errorf("child %q ends after root: %d+%d > %d", c.Name, c.StartNanos, c.DurationNanos, root.DurationNanos)
		}
	}
}

func TestStartUntracedIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "anything")
	if sp != nil {
		t.Fatal("untraced Start returned a span")
	}
	if ctx2 != ctx {
		t.Error("untraced Start changed the context")
	}
	// Every method tolerates the nil receiver.
	sp.End()
	sp.EndErr(errors.New("x"))
	sp.SetSystem("hive")
	sp.SetAttr("k", "v")
	sp.SetInt("n", 3)
	sp.SetFloat("f", 1.5)
	if sp.Attr("k") != "" {
		t.Error("nil span returned an attr")
	}
}

// TestUntracedZeroAlloc pins the disabled-path cost: instrumentation on an
// untraced context must not allocate (the serving hot path relies on it).
func TestUntracedZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := Start(ctx, "step")
		sp.SetSystem("hive")
		sp.SetAttr("operator", "scan")
		sp.SetInt("retries", 2)
		sp.EndErr(nil)
		_ = ctx2
	})
	if allocs != 0 {
		t.Errorf("untraced instrumentation allocates %.1f per op, want 0", allocs)
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := New("q")
	ctx := ContextWithSpan(context.Background(), tr.Root)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := Start(ctx, "cost")
			sp.SetInt("worker", i)
			sp.End()
		}(i)
	}
	wg.Wait()
	tr.Finish(nil)
	if len(tr.Root.Children) != 16 {
		t.Errorf("children = %d, want 16", len(tr.Root.Children))
	}
}

func TestRing(t *testing.T) {
	r := NewRing(4)
	if got := r.Recent(10); len(got) != 0 {
		t.Errorf("empty ring Recent = %d traces", len(got))
	}
	for i := 0; i < 6; i++ {
		tr := New(fmt.Sprintf("q%d", i))
		tr.Finish(nil)
		r.Record(tr)
	}
	if r.Count() != 6 {
		t.Errorf("Count = %d", r.Count())
	}
	recent := r.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent = %d traces, want 4 (capacity)", len(recent))
	}
	if recent[0].SQL != "q5" || recent[0].ID != 6 {
		t.Errorf("newest = %q id %d", recent[0].SQL, recent[0].ID)
	}
	if recent[3].SQL != "q2" {
		t.Errorf("oldest kept = %q, want q2", recent[3].SQL)
	}
	if got := r.Recent(2); len(got) != 2 || got[1].SQL != "q4" {
		t.Errorf("Recent(2) = %v", got)
	}
	// nil ring is inert (tracing disabled).
	var nilRing *Ring
	nilRing.Record(New("x"))
	if nilRing.Count() != 0 || nilRing.Recent(1) != nil {
		t.Error("nil ring not inert")
	}
}

// A traced query claims its ID when it starts and publishes when it ends, so
// on a full ring the newest ID's slot still holds the previous lap's trace
// while that query runs. Readers must not take it for the newest.
func TestRingClaimedButUnpublished(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 4; i++ {
		tr := r.NewTrace(fmt.Sprintf("q%d", i))
		tr.Finish(nil)
		r.Record(tr)
	}
	inflight := r.NewTrace("in flight") // ID 5 addresses the slot trace 1 sits in
	ids := func(traces []*Trace) []uint64 {
		out := make([]uint64, len(traces))
		for i, tr := range traces {
			out[i] = tr.ID
		}
		return out
	}
	if got := ids(r.Recent(1)); !slices.Equal(got, []uint64{4}) {
		t.Errorf("Recent(1) with trace 5 in flight = %v, want [4] (the newest published)", got)
	}
	if got := ids(r.Recent(0)); !slices.Equal(got, []uint64{4, 3, 2}) {
		t.Errorf("Recent(0) with trace 5 in flight = %v, want [4 3 2]", got)
	}
	inflight.Finish(nil)
	r.Record(inflight)
	if got := ids(r.Recent(0)); !slices.Equal(got, []uint64{5, 4, 3, 2}) {
		t.Errorf("Recent(0) after publishing = %v, want [5 4 3 2]", got)
	}
}

func TestRenderAndJSON(t *testing.T) {
	tr := New("SELECT a1 FROM t")
	ctx := ContextWithSpan(context.Background(), tr.Root)
	_, parse := Start(ctx, "parse")
	parse.End()
	ctx2, exec := Start(ctx, "execute")
	_, step := Start(ctx2, "scan")
	step.SetSystem("hive")
	step.EndErr(errors.New("boom"))
	exec.End()
	tr.Finish(errors.New("boom"))
	NewRing(1).Record(tr)

	out := tr.Render()
	for _, want := range []string{"trace #1", "SELECT a1 FROM t", "parse", "execute", "scan on hive", "ERROR: boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}

	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.SQL != tr.SQL || back.Error != "boom" || len(back.Root.Children) != 2 {
		t.Errorf("round-trip mismatch: %+v", back)
	}
	if back.Root.Children[1].Children[0].System != "hive" {
		t.Error("round-trip lost nested span system")
	}
}
