// Package statesyncdata exercises the statesync rule: checkpointed
// types whose encode/decode paths drop fields, plus the clean shapes
// the rule must accept.
package statesyncdata

// --- the forgot-a-field checkpoint bug class ---

// counter gains a field (b) whose codec was never updated: encode
// forgets to set image field B and decode never reads it.
type counter struct {
	a int64
	b int64
}

type counterState struct {
	A int64 `json:"a"`
	B int64 `json:"b"`
}

func (c *counter) State() counterState { // want `encode path of counter never sets checkpoint image field\(s\) B` `field\(s\) b of counter are referenced by neither the encode nor the decode path`
	return counterState{A: c.a}
}

func RestoreCounter(st counterState) *counter { // want `decode path of counter never reads checkpoint image field\(s\) B`
	return &counter{a: st.A}
}

// --- the clean counterpart ---

type gauge struct {
	v   float64
	max float64
}

type gaugeState struct {
	V   float64 `json:"v"`
	Max float64 `json:"max"`
}

func (g *gauge) State() gaugeState {
	return gaugeState{V: g.v, Max: g.max}
}

func RestoreGauge(st gaugeState) *gauge {
	return &gauge{v: st.V, max: st.Max}
}

// --- whole-value coverage: a codec that copies aux structs wholesale ---

// entry is an auxiliary struct carried by pair's image; the codec
// never names entry's fields, it copies values whole — that covers
// them.
type entry struct {
	key  string
	hits int64
}

type pair struct {
	items []entry
}

type pairState struct {
	Items []entry `json:"items"`
}

func (p *pair) State() pairState {
	out := make([]entry, len(p.items))
	copy(out, p.items)
	return pairState{Items: out}
}

func RestorePair(st pairState) *pair {
	items := make([]entry, len(st.Items))
	for i := range st.Items {
		items[i] = st.Items[i]
	}
	return &pair{items: items}
}

// --- a checkpointed type with no decode path at all ---

type orphan struct {
	n int64
}

type orphanState struct {
	N int64 `json:"n"`
}

func (o *orphan) State() orphanState { // want `orphan has a checkpoint image \(orphanState\) but no Restore\*/Resume\* decode path`
	return orphanState{N: o.n}
}

// --- an aux struct dropped by the codec ---

// moments is reached from tracker's image; its m2 field is carried by
// neither direction.
type moments struct {
	mean float64
	m2   float64
}

type tracker struct {
	mom moments
}

type trackerState struct {
	Mom moments `json:"mom"`
}

func (t *tracker) State() trackerState { // want `field\(s\) m2 of moments \(reached from tracker state\) are referenced by neither the encode nor the decode path`
	return trackerState{Mom: moments{mean: t.mom.mean}}
}

func RestoreTracker(st trackerState) *tracker {
	return &tracker{mom: moments{mean: st.Mom.mean}}
}

// --- a transient field, named only by the constructor restore calls ---

// window's scratch is rebuilt, never checkpointed: the constructor the
// decode path goes through covers it.
type window struct {
	n       int64
	scratch []float64
}

type windowState struct {
	N int64 `json:"n"`
}

func newWindow() *window { return &window{scratch: make([]float64, 0, 8)} }

func (w *window) State() windowState { return windowState{N: w.n} }

func RestoreWindow(st windowState) *window {
	w := newWindow()
	w.n = st.N
	return w
}
