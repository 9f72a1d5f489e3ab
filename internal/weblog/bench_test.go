package weblog_test

import (
	"strings"
	"sync"
	"testing"

	"fullweb/internal/weblog"
	"fullweb/internal/workload"
)

// chunkText is one chunk's '\n'-terminated lines and their count.
type chunkText struct {
	text  string
	lines int
}

// wvuDay is one seeded WVU day at the archive benchmark's density
// (scale 0.1, ~215k lines), as chunk texts of DefaultChunkLines lines
// each, generated once per test binary.
var wvuDay = sync.OnceValues(func() ([]chunkText, error) {
	tr, err := workload.Generate(workload.WVU(), workload.Config{Scale: 0.1, Seed: 1, Days: 1})
	if err != nil {
		return nil, err
	}
	var chunks []chunkText
	for start := 0; start < len(tr.Records); start += weblog.DefaultChunkLines {
		var b strings.Builder
		recs := tr.Records[start:min(start+weblog.DefaultChunkLines, len(tr.Records))]
		for _, rec := range recs {
			b.WriteString(rec.FormatCLF())
			b.WriteByte('\n')
		}
		chunks = append(chunks, chunkText{b.String(), len(recs)})
	}
	return chunks, nil
})

// BenchmarkParseChunk is the parse layer alone: every chunk of a
// generated WVU day parsed into one recycled record slab, reported in
// ns/record. `go test -run '^$' -bench ParseChunk -benchtime 1x`
// measures one pass.
func BenchmarkParseChunk(b *testing.B) {
	chunks, err := wvuDay()
	if err != nil {
		b.Fatal(err)
	}
	var slab []weblog.Record
	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chunks {
			recs := weblog.ParseChunkText(c.text, c.lines, slab)
			records += len(recs)
			clear(recs)
			slab = recs[:0]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}
