package telemetry_test

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
)

// intakeStats builds a two-source intake view with the given buffered
// bytes and last-delivery stamps.
func intakeStats(capB int64, buffered []int64, lastAt []time.Time, complete []bool) telemetry.IntakeStats {
	st := telemetry.IntakeStats{BufferCap: capB}
	for i := range buffered {
		st.Sources = append(st.Sources, telemetry.IntakeSource{
			Name:     string(rune('a' + i)),
			Buffered: buffered[i],
			LastAt:   lastAt[i],
			Complete: complete[i],
		})
	}
	return st
}

// TestIntakeRuleOrder: with Intake set the report appends exactly
// source-staleness and intake-buffer after the five engine rules, in
// that order; without it the report keeps the five-rule shape.
func TestIntakeRuleOrder(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	h := telemetry.NewHealth(telemetry.HealthConfig{Intake: true}, holder, obs.NewRegistry(), clock)
	rep := h.Evaluate()
	want := []string{"ingest-budget", "backpressure", "fold-lag", "checkpoint", "quarantine", "source-staleness", "intake-buffer"}
	if len(rep.Rules) != len(want) {
		t.Fatalf("intake report has %d rules, want %d", len(rep.Rules), len(want))
	}
	for i, name := range want {
		if rep.Rules[i].Rule != name {
			t.Errorf("rule %d = %q, want %q", i, rep.Rules[i].Rule, name)
		}
	}
	// Before any intake publication both rules are ok.
	for _, name := range []string{"source-staleness", "intake-buffer"} {
		if r := ruleByName(t, rep, name); r.Status != "ok" || !strings.Contains(r.Detail, "no intake published") {
			t.Errorf("%s before publication: %q (%s)", name, r.Status, r.Detail)
		}
	}
}

// TestSourceStalenessBoundaries pins the clock exactly on the
// staleness bound: at the bound a source is still fresh (the
// comparison is strictly greater-than), one nanosecond past it warns,
// and completed or draining sources never age.
func TestSourceStalenessBoundaries(t *testing.T) {
	const bound = telemetry.SourceStaleAfter
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	h := telemetry.NewHealth(telemetry.HealthConfig{Intake: true}, holder, obs.NewRegistry(), clock)

	eval := func() telemetry.RuleResult {
		return ruleByName(t, h.Evaluate(), "source-staleness")
	}

	last := []time.Time{epoch, epoch}
	holder.PublishIntake(intakeStats(1<<20, []int64{0, 0}, last, []bool{false, false}))

	// Exactly at the bound: still fresh.
	clock.Set(epoch.Add(bound))
	if r := eval(); r.Status != "ok" {
		t.Errorf("exactly at bound: %q (%s), want ok", r.Status, r.Detail)
	}
	// One nanosecond past: warn, naming the silent sources.
	clock.Set(epoch.Add(bound + time.Nanosecond))
	if r := eval(); r.Status != "warn" || !strings.Contains(r.Detail, "a, b") {
		t.Errorf("past bound: %q (%s), want warn naming a, b", r.Status, r.Detail)
	}
	// Staleness never fails the report.
	if rep := h.Evaluate(); !rep.Healthy {
		t.Error("stale sources failed the report; staleness must only warn")
	}
	// A completed source stops aging.
	holder.PublishIntake(intakeStats(1<<20, []int64{0, 0}, last, []bool{true, false}))
	if r := eval(); r.Status != "warn" || strings.Contains(r.Detail, "a") && !strings.HasPrefix(r.Detail, "stale sources (silent > 2m0s): b") {
		t.Errorf("completed source still listed: %s", r.Detail)
	}
	// Draining: everything is being force-completed; no warning.
	st := intakeStats(1<<20, []int64{0, 0}, last, []bool{false, false})
	st.Draining = true
	holder.PublishIntake(st)
	if r := eval(); r.Status != "ok" || r.Detail != "draining" {
		t.Errorf("draining intake: %q (%s), want ok/draining", r.Status, r.Detail)
	}
}

// TestIntakeBufferBoundaries pins buffer occupancy exactly on the rule
// thresholds: 79% ok, 80% warn (>= warn fraction), full fail.
func TestIntakeBufferBoundaries(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	h := telemetry.NewHealth(telemetry.HealthConfig{Intake: true}, holder, obs.NewRegistry(), clock)
	const capB = 1000
	last := []time.Time{epoch, epoch}

	for _, tc := range []struct {
		name     string
		buffered int64
		status   string
		healthy  bool
	}{
		{"empty", 0, "ok", true},
		{"just-under-warn", 799, "ok", true},
		{"exactly-warn-fraction", 800, "warn", true},
		{"just-under-full", 999, "warn", true},
		{"exactly-full", 1000, "fail", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The worst source drives the rule; the other stays empty.
			holder.PublishIntake(intakeStats(capB, []int64{0, tc.buffered}, last, []bool{false, false}))
			rep := h.Evaluate()
			r := ruleByName(t, rep, "intake-buffer")
			if r.Status != tc.status {
				t.Errorf("buffered=%d: status %q (%s), want %q", tc.buffered, r.Status, r.Detail, tc.status)
			}
			if rep.Healthy != tc.healthy {
				t.Errorf("buffered=%d: healthy=%v, want %v", tc.buffered, rep.Healthy, tc.healthy)
			}
			if tc.status != "ok" && !strings.Contains(r.Detail, "b") {
				t.Errorf("detail does not name the worst source: %s", r.Detail)
			}
		})
	}
}

// TestIntakePublicationSequencing: intake publications are sequenced
// independently of the engine cells and survive concurrent publishers.
func TestIntakePublicationSequencing(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	if _, ok := holder.LatestIntake(); ok {
		t.Fatal("LatestIntake ok before any publication")
	}
	holder.PublishIntake(telemetry.IntakeStats{BufferCap: 1})
	holder.PublishIntake(telemetry.IntakeStats{BufferCap: 2})
	pub, ok := holder.LatestIntake()
	if !ok || pub.Seq != 2 || pub.Stats.BufferCap != 2 {
		t.Fatalf("intake publication = %+v ok=%v, want seq 2 cap 2", pub, ok)
	}
}

// TestReadyGate: a closed gate holds /readyz at 503 with the gate's
// reason even after the first runtime publication; once the gate
// opens, publication readiness applies as before.
func TestReadyGate(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	reg := obs.NewRegistry()
	health := telemetry.NewHealth(telemetry.HealthConfig{}, holder, reg, clock)
	srv := telemetry.NewServer(reg, holder, health)
	open := false
	srv.SetReadyGate(func() (bool, string) {
		if !open {
			return false, "intake listeners not bound"
		}
		return true, ""
	})
	handler := srv.Handler()

	holder.PublishRuntime(stream.RuntimeStats{Records: 7})
	rec := get(handler, http.MethodGet, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "intake listeners not bound") {
		t.Fatalf("closed gate readyz = %d %q, want 503 with gate reason", rec.Code, rec.Body.String())
	}

	open = true
	rec = get(handler, http.MethodGet, "/readyz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ready": true`) {
		t.Fatalf("open gate readyz = %d %q, want 200 ready", rec.Code, rec.Body.String())
	}
}
