package sim

import (
	"testing"
	"testing/quick"
)

func TestDesiredScalesUpWithLoad(t *testing.T) {
	c := DefaultController()
	cases := []struct {
		rps     float64
		current int
		want    int
	}{
		{50, 1, 1},
		{250, 1, 2},    // 250 > 200 (one pair at 0.8 target) → 2 pairs
		{500, 1, 3},    // 500/200 → 3 pairs
		{1000, 1, 5},   // 1000/200 → 5 pairs
		{10000, 1, 16}, // clamped at Max
		{0, 1, 1},      // clamped at Min
	}
	for _, tc := range cases {
		if got := c.Desired(tc.rps, tc.current); got != tc.want {
			t.Errorf("Desired(%.0f, %d) = %d, want %d", tc.rps, tc.current, got, tc.want)
		}
	}
}

func TestDesiredScaleDownHysteresis(t *testing.T) {
	c := DefaultController()
	// 4 pairs handle 800 RPS at target. Load drops slightly below the
	// scale-down margin (800 − 62.5): must hold at 4.
	if got := c.Desired(760, 4); got != 4 {
		t.Errorf("Desired(760, 4) = %d, want 4 (hysteresis)", got)
	}
	// Load drops far below: scale down.
	if got := c.Desired(150, 4); got != 1 {
		t.Errorf("Desired(150, 4) = %d, want 1", got)
	}
}

func TestDesiredNeverOutOfBoundsProperty(t *testing.T) {
	c := DefaultController()
	f := func(rpsRaw uint16, curRaw uint8) bool {
		got := c.Desired(float64(rpsRaw), int(curRaw))
		return got >= c.Min && got <= c.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDesiredMonotoneInLoadProperty(t *testing.T) {
	c := DefaultController()
	f := func(aRaw, bRaw uint16, curRaw uint8) bool {
		a, b := float64(aRaw), float64(bRaw)
		if a > b {
			a, b = b, a
		}
		cur := int(curRaw%8) + 1
		return c.Desired(a, cur) <= c.Desired(b, cur)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDesiredHysteresisExactBoundary(t *testing.T) {
	c := DefaultController()
	// 4 pairs at 200 RPS/pair target → margin = 800 − 0.25×250 = 737.5.
	// Exactly at the margin the comparison is strict: hold.
	if got := c.Desired(737.5, 4); got != 4 {
		t.Errorf("Desired(737.5, 4) = %d, want 4 (boundary is exclusive)", got)
	}
	// One epsilon below the margin crosses it — but raw demand for
	// 737.49 RPS is ceil(737.49/200) = 4, so the count still holds:
	// the hysteresis band can only release down to raw demand.
	if got := c.Desired(737.49, 4); got != 4 {
		t.Errorf("Desired(737.49, 4) = %d, want 4 (raw demand still 4)", got)
	}
	// Below both the margin and a raw-demand step: scale down.
	if got := c.Desired(590, 4); got != 3 {
		t.Errorf("Desired(590, 4) = %d, want 3", got)
	}
}

func TestDesiredClampsCurrentOutOfBounds(t *testing.T) {
	c := DefaultController()
	// A current count outside [Min, Max] (bad caller state) is clamped
	// before the policy runs.
	if got := c.Desired(100, 0); got != 1 {
		t.Errorf("Desired(100, 0) = %d, want Min", got)
	}
	if got := c.Desired(100, 100); got < c.Min || got > c.Max {
		t.Errorf("Desired(100, 100) = %d, out of [%d, %d]", got, c.Min, c.Max)
	}
	if got := c.Desired(1e9, 3); got != c.Max {
		t.Errorf("Desired(1e9, 3) = %d, want Max", got)
	}
}

func TestDesiredFlapSequenceIsStable(t *testing.T) {
	// The hysteresis band only holds a count when it is wider than one
	// raw-demand step, i.e. Hysteresis×PairCapacityRPS > perPair. Use
	// such a controller: perPair = 50, band offset = 75.
	c := &Controller{
		PairCapacityRPS:   100,
		TargetUtilization: 0.5,
		Min:               1,
		Max:               8,
		Hysteresis:        0.75,
	}
	// Load oscillating around one pair's scale-up point (50 RPS) must
	// not flap the count: up to 2 on the high sample, then the band
	// (scale down only below 2×50 − 75 = 25 RPS) holds 2 on the low.
	cur := 1
	seq := []float64{55, 45, 55, 45, 55, 45}
	var counts []int
	for _, rps := range seq {
		cur = c.Desired(rps, cur)
		counts = append(counts, cur)
	}
	for i, n := range counts {
		if i > 0 && n != 2 {
			t.Fatalf("flap: counts = %v, want steady 2 after first step", counts)
		}
	}
	// A real drop below the band does scale down.
	if cur = c.Desired(20, cur); cur != 1 {
		t.Fatalf("Desired(20, 2) = %d, want 1", cur)
	}
}

func TestDesiredDefaultControllerStepsDownWholeBand(t *testing.T) {
	// With the paper defaults the band offset (62.5) is narrower than a
	// pair's target load (200), so any load whose raw demand is below
	// the current count scales down in one step — document that.
	c := DefaultController()
	if got := c.Desired(190, 2); got != 1 {
		t.Errorf("Desired(190, 2) = %d, want 1 (band narrower than a step)", got)
	}
}
