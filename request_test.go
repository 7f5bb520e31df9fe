package atypical

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
)

// renderReport serializes one report the way renderReports does — the byte
// surface the answer identity tests compare.
func renderReport(sys *System, res *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %v candidates=%d inputs=%d zones=%d bound=%v macros=%d\n",
		res.Strategy, res.CandidateMicros, res.InputMicros, res.RedZones, res.Bound, len(res.Macros))
	b.WriteString(sys.Ranking(res.Significant))
	for _, c := range res.Significant {
		b.WriteString(sys.Describe(c))
		b.WriteString("\n")
	}
	return b.String()
}

// A time period is mandatory — the zero-value request is rejected — and a
// Window override must take precedence over FirstDay/Days.
func TestRunRequestResolution(t *testing.T) {
	sys := buildSystem(t)
	if _, err := sys.Run(context.Background(), QueryRequest{}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("zero-value request error = %v, want ErrInvalidRequest", err)
	}

	full, err := sys.Run(context.Background(), QueryRequest{Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	win := cps.DayRange(sys.spec, 0, 7)
	byWindow, err := sys.Run(context.Background(), QueryRequest{Window: &win, FirstDay: 3, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	if byWindow.CandidateMicros != full.CandidateMicros {
		t.Fatalf("Window override ignored: %d vs %d candidates", byWindow.CandidateMicros, full.CandidateMicros)
	}

	if _, err := sys.Run(context.Background(), QueryRequest{Regions: []RegionID{}, Days: 7}); err != nil {
		t.Fatalf("explicit empty region scope: %v", err)
	}
}

// Every Validate rule rejects with ErrInvalidRequest; well-formed requests
// (including the Window-only and explicit-empty-scope edges) pass.
func TestQueryRequestValidate(t *testing.T) {
	box := BBox{}
	win := TimeRange{From: 0, To: 96}
	negWin := TimeRange{From: -1, To: 5}
	invWin := TimeRange{From: 10, To: 3}
	emptyWin := TimeRange{From: 7, To: 7}

	bad := map[string]QueryRequest{
		"zero value":          {},
		"negative days":       {Days: -2},
		"regions plus box":    {Regions: []RegionID{1}, Box: &box, Days: 7},
		"negative deltaS":     {Days: 7, DeltaS: -0.01},
		"negative window":     {Window: &negWin},
		"inverted window":     {Window: &invWin},
		"days zero no window": {FirstDay: 3},
	}
	for name, req := range bad {
		if err := req.Validate(); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidRequest", name, err)
		}
	}

	good := map[string]QueryRequest{
		"days only":        {Days: 7},
		"window only":      {Window: &win},
		"empty window":     {Window: &emptyWin},
		"window overrides": {Window: &win, Days: -5},
		"empty regions":    {Regions: []RegionID{}, Days: 1},
		"box scope":        {Box: &box, Days: 1, DeltaS: 0.05},
	}
	for name, req := range good {
		if err := req.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v, want nil", name, err)
		}
	}

	// Run surfaces the sentinel and records an API error.
	reg := NewObserver()
	sys := buildSystem(t, WithObserver(reg))
	if _, err := sys.Run(context.Background(), QueryRequest{Days: -1}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("Run(bad request) = %v, want ErrInvalidRequest", err)
	}
	if v, _ := sys.Metrics().Value("atyp_api_errors_total", "op", "query"); v != 1 {
		t.Fatalf("query API error count = %v, want 1", v)
	}
}
