package telemetry_test

import (
	"strings"
	"testing"

	"fullweb/internal/obs"
	"fullweb/internal/telemetry"
)

// TestWALRuleOrder: with WAL set the report appends wal-lag and
// wal-disk after the intake rules; before the first journal
// publication both are ok.
func TestWALRuleOrder(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	h := telemetry.NewHealth(telemetry.HealthConfig{Intake: true, WAL: true}, holder, obs.NewRegistry(), clock)
	rep := h.Evaluate()
	want := []string{"ingest-budget", "backpressure", "fold-lag", "checkpoint", "quarantine", "source-staleness", "intake-buffer", "wal-lag", "wal-disk"}
	if len(rep.Rules) != len(want) {
		t.Fatalf("WAL report has %d rules, want %d", len(rep.Rules), len(want))
	}
	for i, name := range want {
		if rep.Rules[i].Rule != name {
			t.Errorf("rule %d = %q, want %q", i, rep.Rules[i].Rule, name)
		}
	}
	for _, name := range []string{"wal-lag", "wal-disk"} {
		if r := ruleByName(t, rep, name); r.Status != "ok" || !strings.Contains(r.Detail, "no journal published") {
			t.Errorf("%s before publication: %q (%s)", name, r.Status, r.Detail)
		}
	}
}

// TestWALLagBoundaries pins the lag rule on its thresholds: at half
// the bound still ok (strictly greater-than), past half warns, at the
// bound still warn, past the bound fails the report.
func TestWALLagBoundaries(t *testing.T) {
	const bound = telemetry.MaxWALLagBytes
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	h := telemetry.NewHealth(telemetry.HealthConfig{WAL: true}, holder, obs.NewRegistry(), clock)

	eval := func(lag int64) telemetry.RuleResult {
		holder.PublishWAL(telemetry.WALStats{LagBytes: lag})
		return ruleByName(t, h.Evaluate(), "wal-lag")
	}
	if r := eval(bound / 2); r.Status != "ok" {
		t.Errorf("lag at half bound: %q (%s), want ok", r.Status, r.Detail)
	}
	if r := eval(bound/2 + 1); r.Status != "warn" {
		t.Errorf("lag past half bound: %q (%s), want warn", r.Status, r.Detail)
	}
	if r := eval(bound); r.Status != "warn" {
		t.Errorf("lag exactly at bound: %q (%s), want warn", r.Status, r.Detail)
	}
	if r := eval(bound + 1); r.Status != "fail" {
		t.Errorf("lag past bound: %q (%s), want fail", r.Status, r.Detail)
	}
	if rep := h.Evaluate(); rep.Healthy {
		t.Error("journal lag past the bound did not unhealth the report")
	}
}

// TestWALDiskBoundaries: no budget is ok at any size, 79% of budget
// ok, 80% warns, and a shedding journal fails regardless of footprint
// with the shed reason in the detail.
func TestWALDiskBoundaries(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	h := telemetry.NewHealth(telemetry.HealthConfig{WAL: true}, holder, obs.NewRegistry(), clock)

	eval := func(st telemetry.WALStats) telemetry.RuleResult {
		holder.PublishWAL(st)
		return ruleByName(t, h.Evaluate(), "wal-disk")
	}
	if r := eval(telemetry.WALStats{DiskBytes: 1 << 40}); r.Status != "ok" || !strings.Contains(r.Detail, "no budget") {
		t.Errorf("unbudgeted journal: %q (%s), want ok", r.Status, r.Detail)
	}
	if r := eval(telemetry.WALStats{DiskBytes: 79, DiskBudgetBytes: 100}); r.Status != "ok" {
		t.Errorf("79%% of budget: %q (%s), want ok", r.Status, r.Detail)
	}
	if r := eval(telemetry.WALStats{DiskBytes: 80, DiskBudgetBytes: 100}); r.Status != "warn" {
		t.Errorf("80%% of budget: %q (%s), want warn", r.Status, r.Detail)
	}
	shed := telemetry.WALStats{DiskBytes: 1, DiskBudgetBytes: 100, Shedding: true, ShedReason: "disk budget: exhausted"}
	if r := eval(shed); r.Status != "fail" || !strings.Contains(r.Detail, "disk budget: exhausted") {
		t.Errorf("shedding journal: %q (%s), want fail naming the reason", r.Status, r.Detail)
	}
	if rep := h.Evaluate(); rep.Healthy {
		t.Error("shedding journal did not unhealth the report")
	}
}

// TestWALPublicationSequencing: journal publications carry a
// monotonically increasing sequence and clock stamps, independent of
// the runtime and intake cells.
func TestWALPublicationSequencing(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	if _, ok := holder.LatestWAL(); ok {
		t.Fatal("fresh holder reports a journal publication")
	}
	holder.PublishWAL(telemetry.WALStats{JournaledBytes: 1})
	holder.PublishWAL(telemetry.WALStats{JournaledBytes: 2})
	pub, ok := holder.LatestWAL()
	if !ok || pub.Seq != 2 || pub.Stats.JournaledBytes != 2 || !pub.At.Equal(epoch) {
		t.Fatalf("publication = %+v, %v", pub, ok)
	}
}
