package stream

import (
	"bytes"
	"fmt"
	"math"
)

// CheckpointEdit is one state-level edit of a checkpoint, aimed at one
// restore check or at a value a restore must tolerate. Editing the
// decoded state, rather than payload bytes, lets an edit reach a
// semantic check behind the decoder's own.
type CheckpointEdit struct {
	Name string
	// Want is a substring of the error ResumeEngine must return for
	// the edited checkpoint, or empty when the edit must resume.
	Want string
	edit func(*engineState)
}

// eachChar applies fn to every characteristic.
func eachChar(st *engineState, fn func(*charCheckpoint)) {
	for i := range st.Chars {
		fn(&st.Chars[i])
	}
}

// eachSecond applies fn to both arrival trackers.
func eachSecond(st *engineState, fn func(*secondState)) {
	fn(&st.ReqArr)
	fn(&st.SessArr)
}

// setCounts sets every sketch and aggregated-variance count to n.
func setCounts(n int64) func(*engineState) {
	return func(st *engineState) {
		eachChar(st, func(c *charCheckpoint) { c.Moments.N, c.Quant.N = n, n })
		eachSecond(st, func(s *secondState) { s.Est.N = n })
	}
}

// setCaps sets every quantile and reservoir capacity to n.
func setCaps(n int) func(*engineState) {
	return func(st *engineState) {
		eachChar(st, func(c *charCheckpoint) { c.Quant.Cap, c.Hill.Res.Cap = n, n })
	}
}

// CheckpointEdits are the semantic edits FuzzCheckpointDecode seeds
// from and TestResumeRejectsCheckpointEdits checks one by one.
var CheckpointEdits = []CheckpointEdit{
	{"negative line count", "", func(st *engineState) { st.Lines = -1 }},
	{"negative counts", "sketch counts disagree", setCounts(-5)},
	{"maximal counts", "sketch counts disagree", setCounts(math.MaxInt64)},
	{"extra characteristic", "holds 4 characteristics", func(st *engineState) {
		st.Chars = append([]charCheckpoint{{}}, st.Chars...)
	}},
	{"bogus characteristic name", `is "bogus" in checkpoint`, func(st *engineState) {
		eachChar(st, func(c *charCheckpoint) { c.Name = "bogus" })
	}},
	{"sketch capacity 7", "sketch geometry does not match", setCaps(7)},
	// A capacity that sizes an allocation once taken on trust.
	{"sketch capacity 1e18", "sketch geometry does not match", setCaps(1e18)},
	{"reservoir seen 9e18", "sketch counts disagree", func(st *engineState) {
		eachChar(st, func(c *charCheckpoint) { c.Hill.Res.Seen = 9e18 })
	}},
	{"unsorted quantile buffer", "quantile sketch weight", func(st *engineState) {
		eachChar(st, func(c *charCheckpoint) { c.Quant.Buf = []float64{3, 1, 2} })
	}},
	{"short quantile level", "quantile sketch level 0 holds 1", func(st *engineState) {
		eachChar(st, func(c *charCheckpoint) {
			if len(c.Quant.Levels) > 0 {
				c.Quant.Levels = append([][]float64{{1}}, c.Quant.Levels...)
				c.Quant.Flips = append([]bool{false}, c.Quant.Flips...)
			}
		})
	}},
	{"zero aggregation width", "width 0", func(st *engineState) {
		eachSecond(st, func(s *secondState) {
			for i := range s.Est.Levels {
				s.Est.Levels[i].Width = 0
			}
		})
	}},
	{"negative last arrival second", "", func(st *engineState) { st.Arrivals.Last = -1 }},
	{"extra request second", "request seconds but", func(st *engineState) {
		st.Arrivals.Requests = append([]float64{-1}, st.Arrivals.Requests...)
	}},
	{"huge means", "", func(st *engineState) {
		eachChar(st, func(c *charCheckpoint) { c.Moments.Mean = 1e308 })
		eachSecond(st, func(s *secondState) {
			for i := range s.Est.Levels {
				s.Est.Levels[i].Mean = 1e308
			}
		})
	}},
}

// Apply decodes the checkpoint data, applies the edit and returns the
// re-encoded checkpoint under a header whose checksum matches.
func (ed CheckpointEdit) Apply(data []byte) ([]byte, error) {
	cp, err := ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ed.Name, err)
	}
	st := cp.state
	ed.edit(&st)
	var payload bytes.Buffer
	sum, err := encodePayload(&payload, &st)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ed.Name, err)
	}
	return append([]byte(checkpointHeader(sum)), payload.Bytes()...), nil
}
