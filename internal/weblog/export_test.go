package weblog

// ParseChunkText runs parseChunk over text, lines '\n'-terminated CLF
// lines, parsing into slab (whose elements must all be zero) with no
// field bound, and returns the records. It exposes the parse layer
// alone, without the scanner or the pool, to the external-package
// benchmark, which needs internal/workload (an importer of this
// package) to generate its trace.
func ParseChunkText(text string, lines int, slab []Record) []Record {
	return parseChunk(rawChunk{firstLine: 1, lines: lines, text: text}, slab, 0).Records
}

// EventSeconds returns every record timestamp as Unix seconds, sorted —
// the input format of the Poisson test battery.
func (s *Store) EventSeconds() []int64 {
	out := make([]int64, len(s.records))
	for i, r := range s.records {
		out[i] = r.Time.Unix()
	}
	return out
}
