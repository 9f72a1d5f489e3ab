package lrd

import "fmt"

// AggVarState is the checkpointable image of an OnlineAggVar: every
// dyadic level's partially filled block and Welford moments, verbatim.
type AggVarState struct {
	Levels []AggLevelState
	N      int64
}

// AggLevelState is one dyadic aggregation level.
type AggLevelState struct {
	Width   int64
	Partial float64
	Filled  int64
	Blocks  int64
	Mean    float64
	M2      float64
}

// State captures the estimator for checkpointing.
func (o *OnlineAggVar) State() AggVarState {
	st := AggVarState{Levels: make([]AggLevelState, len(o.levels)), N: o.n}
	for j, l := range o.levels {
		st.Levels[j] = AggLevelState{
			Width:   l.width,
			Partial: l.partial,
			Filled:  l.filled,
			Blocks:  l.blocks,
			Mean:    l.mean,
			M2:      l.m2,
		}
	}
	return st
}

// RestoreOnlineAggVar rebuilds an OnlineAggVar from a checkpointed
// state.
func RestoreOnlineAggVar(st AggVarState) (*OnlineAggVar, error) {
	if len(st.Levels) == 0 {
		return nil, fmt.Errorf("%w: aggregated-variance state has no levels", ErrBadParam)
	}
	o, err := NewOnlineAggVar(len(st.Levels))
	if err != nil {
		return nil, err
	}
	for j, l := range st.Levels {
		if l.Width != o.levels[j].width {
			return nil, fmt.Errorf("%w: level %d width %d, want %d", ErrBadParam, j, l.Width, o.levels[j].width)
		}
		o.levels[j].partial = l.Partial
		o.levels[j].filled = l.Filled
		o.levels[j].blocks = l.Blocks
		o.levels[j].mean = l.Mean
		o.levels[j].m2 = l.M2
	}
	o.n = st.N
	return o, nil
}
