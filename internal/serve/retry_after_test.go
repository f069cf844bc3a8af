package serve

import (
	"testing"
	"time"

	"aspen/internal/lang"
)

func TestClampRetrySecs(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{-5, "1"},
		{0, "1"}, // the cold-start bug: an empty histogram must not emit 0
		{1, "1"},
		{42, "42"},
		{60, "60"},
		{61, "60"},
		{1 << 40, "60"},
	}
	for _, c := range cases {
		if got := clampRetrySecs(c.in); got != c.want {
			t.Errorf("clampRetrySecs(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestRetryAfterBounds pins the 429 hint at both ends: a cold server
// with no latency history answers at least 1 second, and a pathological
// backlog estimate is capped at maxRetryAfterSecs. Between them, the
// estimate divides the backlog by the surviving worker width.
func TestRetryAfterBounds(t *testing.T) {
	s, err := New(Options{Languages: []*lang.Language{lang.JSON()}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := s.grammar("JSON")

	// Cold start: empty histogram, empty queue.
	if got := s.retryAfter(g); got != "1" {
		t.Errorf("cold-start Retry-After = %q, want %q", got, "1")
	}

	// A sub-second mean must round up to 1, never truncate to 0.
	g.m.requestNS.ObserveInt((50 * time.Millisecond).Nanoseconds())
	if !g.flow.admit() {
		t.Fatal("empty waiting room refused admission")
	}
	if got := s.retryAfter(g); got != "1" {
		t.Errorf("sub-second estimate Retry-After = %q, want %q", got, "1")
	}

	// A huge mean latency times a backlog is capped, not propagated.
	g.m.requestNS.ObserveInt((10 * time.Minute).Nanoseconds())
	if got := s.retryAfter(g); got != "60" {
		t.Errorf("pathological estimate Retry-After = %q, want %q", got, "60")
	}
	g.flow.leave()

	// The backlog drains at the surviving width, not the provisioned
	// one: four admitted requests at a 2 s mean take one round of four
	// healthy slots, but four rounds once bank loss has floored the
	// width at one.
	s, err = New(Options{Languages: []*lang.Language{lang.JSON()}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	g = s.grammar("JSON")
	g.m.requestNS.ObserveInt((2 * time.Second).Nanoseconds())
	for i := 0; i < 4; i++ {
		if !g.flow.admit() {
			t.Fatal("waiting room refused admission")
		}
	}
	if got := s.retryAfter(g); got != "2" {
		t.Errorf("full-width Retry-After = %q, want %q", got, "2")
	}
	for s.KillNextBank() >= 0 {
	}
	if w := g.effectiveWorkers(); w != 1 {
		t.Fatalf("dead fabric left width %d, want the floor of 1", w)
	}
	if got := s.retryAfter(g); got != "8" {
		t.Errorf("floored-width Retry-After = %q, want %q", got, "8")
	}
}
