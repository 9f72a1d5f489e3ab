package session_test

import (
	"sync"
	"testing"

	"fullweb/internal/session"
	"fullweb/internal/weblog"
	"fullweb/internal/workload"
)

// wvuDay is one seeded WVU day at the archive benchmark's density
// (scale 0.1, ~215k records), generated once per test binary.
var wvuDay = sync.OnceValues(func() ([]weblog.Record, error) {
	tr, err := workload.Generate(workload.WVU(), workload.Config{Scale: 0.1, Seed: 1, Days: 1})
	if err != nil {
		return nil, err
	}
	return tr.Records, nil
})

// BenchmarkStreamerObserve is the sessionize layer alone: a generated
// WVU day fed record by record, by reference as the engine feeds it, through a fresh Streamer and flushed,
// reported in ns/record. `go test -run '^$' -bench StreamerObserve
// -benchtime 1x` measures one pass.
func BenchmarkStreamerObserve(b *testing.B) {
	recs, err := wvuDay()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := session.NewStreamer(session.DefaultThreshold)
		if err != nil {
			b.Fatal(err)
		}
		for j := range recs {
			if _, err := st.ObserveClampedRef(&recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		st.Flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}
